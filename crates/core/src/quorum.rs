//! Quorum bookkeeping helpers shared by the emulation protocols.
//!
//! Two kinds of quorums appear in the constructions, both of the form "wait
//! until `n - f` servers have fully answered":
//!
//! * **server quorums** — both phases of ABD, where each server answers one
//!   per-server primitive; tracked by [`ServerQuorumTracker`];
//! * **scans** — the `collect()` of Algorithm 2, where a server has answered
//!   once every register it hosts has; tracked by [`ScanTracker`].
//!
//! Both live for a whole run and are re-armed between phases
//! ([`ServerQuorumTracker::reset`], [`ScanTracker::restart`]) instead of
//! being rebuilt: their state is dense flags indexed by server and object
//! plus counters, so after the first phase re-arming allocates nothing.

use regemu_fpsm::{ObjectId, ServerId, Value};

/// Tracks completion of per-server tasks until a threshold of servers is
/// reached, accumulating the maximum [`Value`] observed along the way.
#[derive(Clone, Debug, Default)]
pub struct ServerQuorumTracker {
    threshold: usize,
    /// `completed[s]` once server `s` recorded; grown on demand.
    completed: Vec<bool>,
    completed_count: usize,
    best: Value,
}

impl ServerQuorumTracker {
    /// Creates a tracker that is satisfied once `threshold` distinct servers
    /// completed.
    pub fn new(threshold: usize) -> Self {
        ServerQuorumTracker {
            threshold,
            completed: Vec::new(),
            completed_count: 0,
            best: Value::INITIAL,
        }
    }

    /// Forgets every recorded server and value, keeping the threshold: the
    /// tracker starts the next phase as if just created.
    pub fn reset(&mut self) {
        self.completed.fill(false);
        self.completed_count = 0;
        self.best = Value::INITIAL;
    }

    /// Records that `server` completed its task, folding `value` (if any)
    /// into the running maximum. Re-completing a server has no effect.
    pub fn record(&mut self, server: ServerId, value: Option<Value>) {
        if let Some(v) = value {
            self.best = self.best.max(v);
        }
        if server.index() >= self.completed.len() {
            self.completed.resize(server.index() + 1, false);
        }
        if !std::mem::replace(&mut self.completed[server.index()], true) {
            self.completed_count += 1;
        }
    }

    /// Number of servers recorded so far.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Returns `true` once the threshold has been reached.
    pub fn satisfied(&self) -> bool {
        self.completed_count >= self.threshold
    }

    /// The maximum value observed across all recorded servers.
    pub fn best(&self) -> Value {
        self.best
    }

    /// The servers recorded so far, in server order.
    pub fn completed(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.completed
            .iter()
            .enumerate()
            .filter(|(_, done)| **done)
            .map(|(s, _)| ServerId::new(s))
    }
}

/// Tracks a `collect()`-style scan: for every server, the registers that
/// still have to respond; a server's scan is complete once all of its
/// registers responded. Satisfied once `threshold` servers completed.
///
/// The groups must name each server at most once and each register in at
/// most one group, as a placement does.
#[derive(Clone, Debug, Default)]
pub struct ScanTracker {
    threshold: usize,
    /// Registers each server still waits for, indexed by server.
    remaining: Vec<usize>,
    /// The server each outstanding register belongs to, indexed by object;
    /// `None` once it responded or when it is not part of the scan.
    outstanding: Vec<Option<ServerId>>,
    completed: usize,
    best: Value,
    values: Vec<Value>,
}

impl ScanTracker {
    /// Creates a scan over the given `(server, registers)` groups; servers
    /// with no registers count as completed immediately.
    pub fn new<'a, I>(threshold: usize, groups: I) -> Self
    where
        I: IntoIterator<Item = &'a (ServerId, Vec<ObjectId>)>,
    {
        let mut scan = ScanTracker {
            threshold,
            ..ScanTracker::default()
        };
        scan.restart(groups);
        scan
    }

    /// Starts a new scan over `groups` with the same threshold, in the state
    /// [`ScanTracker::new`] creates. Registers the previous scan still
    /// waited for — those of servers that never answered — are forgotten.
    pub fn restart<'a, I>(&mut self, groups: I)
    where
        I: IntoIterator<Item = &'a (ServerId, Vec<ObjectId>)>,
    {
        self.remaining.fill(0);
        self.outstanding.fill(None);
        self.completed = 0;
        self.best = Value::INITIAL;
        self.values.clear();
        for (server, registers) in groups {
            if registers.is_empty() {
                self.completed += 1;
                continue;
            }
            if self.remaining.len() <= server.index() {
                self.remaining.resize(server.index() + 1, 0);
            }
            self.remaining[server.index()] = registers.len();
            for b in registers {
                if self.outstanding.len() <= b.index() {
                    self.outstanding.resize(b.index() + 1, None);
                }
                self.outstanding[b.index()] = Some(*server);
            }
        }
    }

    /// Records a read response of `value` from `register` on `server`.
    pub fn record(&mut self, server: ServerId, register: ObjectId, value: Value) {
        self.best = self.best.max(value);
        self.values.push(value);
        let Some(waiting) = self.outstanding.get_mut(register.index()) else {
            return;
        };
        if *waiting == Some(server) {
            *waiting = None;
            self.remaining[server.index()] -= 1;
            if self.remaining[server.index()] == 0 {
                self.completed += 1;
            }
        }
    }

    /// Returns `true` once enough servers completed their scans.
    pub fn satisfied(&self) -> bool {
        self.completed >= self.threshold
    }

    /// Number of servers whose scan completed.
    pub fn completed_count(&self) -> usize {
        self.completed
    }
    /// The maximum value observed so far (over *all* responses, including
    /// those from servers whose scan is still incomplete).
    pub fn best(&self) -> Value {
        self.best
    }

    /// The maximum value observed, restricted to nothing — alias of
    /// [`ScanTracker::best`] kept for readability at call sites that follow
    /// the paper's `max(rdSet)` notation.
    pub fn max_of_read_set(&self) -> Value {
        self.best
    }

    /// All values collected so far (the `rdSet` of Algorithm 2).
    pub fn read_set(&self) -> &[Value] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_quorum_tracks_threshold_and_max() {
        let mut q = ServerQuorumTracker::new(2);
        assert!(!q.satisfied());
        q.record(ServerId::new(0), Some(Value::new(1, 5)));
        q.record(ServerId::new(0), Some(Value::new(9, 9))); // duplicate server
        assert_eq!(q.completed_count(), 1);
        assert!(!q.satisfied());
        q.record(ServerId::new(2), None);
        assert!(q.satisfied());
        assert_eq!(q.best(), Value::new(9, 9));
        assert_eq!(
            q.completed().collect::<Vec<_>>(),
            vec![ServerId::new(0), ServerId::new(2)]
        );
        q.reset();
        assert_eq!((q.completed_count(), q.best()), (0, Value::INITIAL));
        assert!(!q.satisfied());
    }

    #[test]
    fn scan_completes_servers_only_when_all_registers_answered() {
        let groups = vec![
            (ServerId::new(0), vec![ObjectId::new(0), ObjectId::new(1)]),
            (ServerId::new(1), vec![ObjectId::new(2)]),
            (ServerId::new(2), vec![]),
        ];
        let mut scan = ScanTracker::new(2, &groups);
        // The empty server counts immediately.
        assert_eq!(scan.completed_count(), 1);
        assert!(!scan.satisfied());
        scan.record(ServerId::new(0), ObjectId::new(0), Value::new(3, 1));
        assert_eq!(scan.completed_count(), 1);
        scan.record(ServerId::new(0), ObjectId::new(1), Value::new(1, 7));
        assert_eq!(scan.completed_count(), 2);
        assert!(scan.satisfied());
        assert_eq!(scan.best(), Value::new(3, 1));
        assert_eq!(scan.max_of_read_set(), Value::new(3, 1));
        assert_eq!(scan.read_set().len(), 2);
        // Late responses from other servers still fold into the maximum.
        scan.record(ServerId::new(1), ObjectId::new(2), Value::new(8, 0));
        assert_eq!(scan.best(), Value::new(8, 0));
        assert_eq!(scan.completed_count(), 3);
    }

    #[test]
    fn restart_forgets_registers_of_servers_that_never_answered() {
        let first = vec![
            (ServerId::new(0), vec![ObjectId::new(0)]),
            (ServerId::new(1), vec![ObjectId::new(1)]),
        ];
        let mut scan = ScanTracker::new(1, &first);
        scan.record(ServerId::new(0), ObjectId::new(0), Value::new(4, 4));
        assert!(scan.satisfied());
        // Server 1 never answered; the next scan no longer holds object 1.
        let second = vec![
            (ServerId::new(0), vec![ObjectId::new(0)]),
            (ServerId::new(1), vec![ObjectId::new(2)]),
        ];
        scan.restart(&second);
        assert_eq!((scan.completed_count(), scan.best()), (0, Value::INITIAL));
        scan.record(ServerId::new(1), ObjectId::new(1), Value::new(1, 1));
        assert_eq!(scan.completed_count(), 0, "a leftover register counted");
        scan.record(ServerId::new(1), ObjectId::new(2), Value::new(2, 2));
        assert!(scan.satisfied());
        assert_eq!(scan.read_set().len(), 2);
    }

    #[test]
    fn zero_threshold_is_immediately_satisfied() {
        let scan = ScanTracker::new(0, &[]);
        assert!(scan.satisfied());
        let q = ServerQuorumTracker::new(0);
        assert!(q.satisfied());
    }
}
