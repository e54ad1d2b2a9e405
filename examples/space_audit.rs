//! Space audit: watch the lower-bound adversary force the space consumption
//! of a register-based emulation to grow with the number of writers.
//!
//! ```text
//! cargo run --example space_audit
//! ```
//!
//! The example runs the Lemma 1 campaign (the adversary `Ad_i`) against the
//! space-optimal construction and against ABD over max-registers, printing
//! the number of covered registers after every adversary-driven write. The
//! register-based emulation is forced to `≥ i·f` covered registers after the
//! `i`-th write (this is exactly where the `kf` term of Theorem 1 comes
//! from), while the max-register emulation stays flat — the separation of
//! Table 1, observable on real runs.

use regemu::prelude::*;
use regemu_workloads::TextTable;

fn audit(emulation: &dyn Emulation) -> Result<(), Box<dyn std::error::Error>> {
    let params = emulation.params();
    let campaign = LowerBoundCampaign::new(emulation);
    let report = campaign.run(emulation)?;

    let mut table = TextTable::new(
        format!(
            "Ad_i campaign against `{}` ({params}), F = {:?}",
            emulation.name(),
            report.protected
        ),
        &[
            "write #",
            "covered",
            "newly covered",
            "i*f",
            "resources",
            "contention",
        ],
    );
    for it in &report.iterations {
        table.push_row([
            it.iteration.to_string(),
            it.covered.to_string(),
            it.newly_covered.to_string(),
            (it.iteration * params.f).to_string(),
            it.resource_consumption.to_string(),
            it.point_contention.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "final: {} covered registers, {} base objects used, lower bound {}, upper bound {}\n",
        report.final_covered,
        report.final_resource_consumption,
        register_lower_bound(params),
        register_upper_bound(params),
    );
    Ok(())
}

/// The same adversarial pressure, expressed as a [`Scenario`]: the covering
/// adversary scheduler withholds write responses on `f` servers, so every
/// completed write leaves registers covered — the sweepable form of the
/// campaign above.
fn scenario_audit(kind: EmulationKind, params: Params) -> Result<(), Box<dyn std::error::Error>> {
    let report = Scenario::new(params)
        .emulation(kind)
        .workload(WorkloadSpec::WriteSequential {
            rounds: 1,
            read_after_each: false,
        })
        .scheduler(SchedulerSpec::CoverAdversary)
        .check(ConsistencyCheck::WsRegular)
        .seed(1)
        .drain()
        .run()?;
    assert!(report.is_consistent());
    println!(
        "Scenario under {}: `{}` ends with {} covered registers ({} consumed)\n",
        SchedulerSpec::CoverAdversary,
        kind,
        report.metrics.covered_count(),
        report.metrics.resource_consumption(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(6, 1, 4)?;

    // Plain registers: coverage grows by f per completed write.
    let space_optimal = SpaceOptimalEmulation::new(params);
    audit(&space_optimal)?;

    // Max-registers: the adversary cannot make the space grow.
    audit(EmulationKind::AbdMaxRegister.build(params).as_ref())?;

    // The packaged form: the same covering pressure as a scheduler axis.
    scenario_audit(EmulationKind::SpaceOptimal, params)?;

    println!(
        "Takeaway: with read/write base registers the space cost is Θ(k·f); \
         with RMW-style base objects it is 2f + 1 regardless of k."
    );
    Ok(())
}
