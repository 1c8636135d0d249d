//! Keeping the sandbox's vCPUs from halting while a socket-bound
//! workload runs.
//!
//! The reference machine is a two-vCPU Firecracker guest with no cpuidle
//! driver: an idle vCPU executes HLT, which exits to the host, and waking
//! it again costs whatever the host's own halt-polling state makes it
//! cost at that minute — 40–100 µs more in "slow phases" that last
//! minutes and start and stop on their own. A workload whose threads
//! sleep between every message (`page_stream.tcp`: 36 wake-ups per op)
//! then reads 6.0 ms in one phase and 8.1 ms in the other, from the same
//! binary on the same seed. With one lowest-priority spinner per vCPU the
//! vCPUs never halt and the same workload reads 6.0–6.9 ms in either
//! phase (twenty alternating trials, see the README).
//!
//! The spinners are this executable re-run as `nice -n 19 <exe> --spin`:
//! they only take cycles nothing else wants, exit on their own if the
//! benchmark dies, and are killed and reaped when the guard drops.
//! Only a workload that installed a socket transport gets a guard: the
//! in-process ones do not sleep between messages — compute-bound threads
//! gain nothing, and `fed_scan`'s freshly spawned scatter threads queue
//! behind the spinners' time slices.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The hidden argument that turns this executable into a spinner.
pub const SPIN_FLAG: &str = "--spin";

/// A spinner never outlives this, whatever happens to its parent.
const MAX_SPIN: Duration = Duration::from_secs(170);

pub struct IdleGuard {
    spinners: Vec<Child>,
}

impl IdleGuard {
    /// One spinner per CPU. If `nice` or the executable cannot be run the
    /// guard is empty: the run proceeds, exposed to the slow phases.
    pub fn start() -> IdleGuard {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = std::env::current_exe()
            .map(|exe| {
                (0..cpus)
                    .filter_map(|_| {
                        Command::new("nice")
                            .args(["-n", "19"])
                            .arg(&exe)
                            .arg(SPIN_FLAG)
                            .stdin(Stdio::null())
                            .stdout(Stdio::null())
                            .stderr(Stdio::null())
                            .spawn()
                            .ok()
                    })
                    .collect()
            })
            .unwrap_or_default();
        IdleGuard { spinners }
    }

    pub fn spinners(&self) -> usize {
        self.spinners.len()
    }
}

impl Drop for IdleGuard {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            // Already gone is fine; reaping is what matters.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner's body: burn idle cycles until the parent that started it
/// is gone (it may have been killed without running the guard's drop) or
/// the time cap passes.
pub fn spin() {
    let parent = std::os::unix::process::parent_id();
    let started = Instant::now();
    loop {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
        }
        if std::os::unix::process::parent_id() != parent || started.elapsed() > MAX_SPIN {
            return;
        }
    }
}
