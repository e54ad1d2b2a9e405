//! The non-perturbation contract at campaign scale: enabling telemetry
//! must leave every deterministic artifact byte-identical — merged sweep,
//! frontier and fuzz campaign reports, across different shard counts.
//!
//! Telemetry is observation-only: simulators tally into `regemu-obs`
//! counters only when `regemu_obs::enabled()` was set at construction, and
//! nothing in a deterministic path ever reads a counter back. These tests
//! run each campaign twice — telemetry off with one shard, telemetry on
//! with four — and demand byte equality of the merged artifacts. Because
//! the contract is "telemetry can never matter", the assertions stay valid
//! even if another test toggles the global flag mid-run.

use regemu_bounds::Params;
use regemu_workloads::campaign::{run_campaign, CampaignOptions};
use regemu_workloads::frontier::{self, FrontierReport};
use regemu_workloads::fuzz::{
    run_fuzz_campaign, FuzzCampaignConfig, FuzzCampaignOptions, FuzzConfig,
};
use regemu_workloads::sweep::SweepConfig;
use std::path::PathBuf;

fn tmp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regemu-obs-perturb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_telemetry<T>(on: bool, run: impl FnOnce() -> T) -> T {
    let was = regemu_obs::enabled();
    regemu_obs::set_enabled(on);
    let out = run();
    regemu_obs::set_enabled(was);
    out
}

fn options(spool: PathBuf, shards: usize) -> CampaignOptions {
    let mut options = CampaignOptions::new(spool);
    options.shards = shards;
    options.worker_threads = 1;
    options.quiet = true;
    options
}

#[test]
fn sweep_campaign_merges_are_byte_identical_with_telemetry_on() {
    let mut config = SweepConfig::quick();
    config.seeds = vec![7];

    let spool_off = tmp_spool("sweep-off");
    let off = with_telemetry(false, || {
        run_campaign(&config, &options(spool_off.clone(), 1)).unwrap()
    });
    let spool_on = tmp_spool("sweep-on");
    let on = with_telemetry(true, || {
        run_campaign(&config, &options(spool_on.clone(), 4)).unwrap()
    });

    let off = off.report.expect("campaign completed");
    let on = on.report.expect("campaign completed");
    assert_eq!(off.to_json(), on.to_json());
    assert_eq!(off.to_csv(), on.to_csv());
    std::fs::remove_dir_all(&spool_off).ok();
    std::fs::remove_dir_all(&spool_on).ok();
}

#[test]
fn frontier_campaign_reports_are_byte_identical_with_telemetry_on() {
    let mut config = frontier::quick();
    config.grid.truncate(2);
    config.seeds = vec![1];
    config.threads = 1;

    let spool_off = tmp_spool("frontier-off");
    let off = with_telemetry(false, || {
        run_campaign(&config, &options(spool_off.clone(), 1)).unwrap()
    });
    let spool_on = tmp_spool("frontier-on");
    let on = with_telemetry(true, || {
        run_campaign(&config, &options(spool_on.clone(), 4)).unwrap()
    });

    let off = FrontierReport::from_sweep(&off.report.expect("campaign completed"));
    let on = FrontierReport::from_sweep(&on.report.expect("campaign completed"));
    assert_eq!(off.to_json(), on.to_json());
    assert_eq!(off.to_text(), on.to_text());
    assert_eq!(off.to_csv(), on.to_csv());
    std::fs::remove_dir_all(&spool_off).ok();
    std::fs::remove_dir_all(&spool_on).ok();
}

#[test]
fn fuzz_campaign_merges_are_byte_identical_with_telemetry_on() {
    let config = FuzzCampaignConfig::new(FuzzConfig::new(Params::new(1, 1, 3).unwrap()).budget(48))
        .streams(4)
        .generations(2);

    let run = |spool: PathBuf, shards: usize| {
        let mut options = FuzzCampaignOptions::new(spool);
        options.shards = shards;
        options.quiet = true;
        run_fuzz_campaign(&config, &options).unwrap()
    };

    let spool_off = tmp_spool("fuzz-off");
    let off = with_telemetry(false, || run(spool_off.clone(), 1));
    let spool_on = tmp_spool("fuzz-on");
    let on = with_telemetry(true, || run(spool_on.clone(), 4));

    let off = off.report.expect("campaign completed");
    let on = on.report.expect("campaign completed");
    assert_eq!(off.to_text(), on.to_text());
    assert_eq!(off.failures_text(), on.failures_text());
    std::fs::remove_dir_all(&spool_off).ok();
    std::fs::remove_dir_all(&spool_on).ok();
}
