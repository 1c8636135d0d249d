//! The closed-loop driver: runs a workload's clients through a phase,
//! timing only `execute`, and turns the samples into named metrics.

use crate::stats::{highest_supported_tail, percentile};
use crate::trace::{now_ns, thread_index, Probe};
use crate::workloads::{Client, Instance, OpInput, Spec};
use dais_soap::StatsSnapshot;
use std::time::Duration;

/// When a phase ends: after a fixed number of ops per client, at a
/// deadline, or whichever comes first. An op in flight at the deadline
/// completes.
#[derive(Clone, Copy)]
pub struct Limits {
    pub ops_per_client: Option<usize>,
    pub duration: Option<Duration>,
}

impl Limits {
    pub fn ops(n: usize) -> Limits {
        Limits { ops_per_client: Some(n), duration: None }
    }

    pub fn duration(d: Duration) -> Limits {
        Limits { ops_per_client: None, duration: Some(d) }
    }
}

#[derive(Clone, Copy)]
pub struct Sample {
    pub kind: u8,
    /// When the op completed, from the start of its phase.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub rows: u32,
}

/// An op kept for the shadow calls: which thread ran it (to line it up
/// with its op span) and what it asked for.
pub struct CapturedInput {
    pub thread: u32,
    pub input: OpInput,
}

#[derive(Default)]
pub struct Phase {
    /// Correct, completed ops. A failed op contributes no sample.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    pub wall_ns: u64,
    pub bus: StatsDelta,
    pub allocs: u64,
    pub captured: Vec<CapturedInput>,
}

impl Phase {
    /// Rows the phase's correct ops delivered.
    pub fn rows(&self) -> u64 {
        self.samples.iter().map(|s| u64::from(s.rows)).sum()
    }
}

/// Client-bus traffic over a phase.
#[derive(Default, Clone, Copy)]
pub struct StatsDelta {
    pub messages: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub retries: u64,
    pub shed: u64,
}

impl StatsDelta {
    fn between(before: StatsSnapshot, after: StatsSnapshot) -> StatsDelta {
        StatsDelta {
            messages: after.messages - before.messages,
            request_bytes: after.request_bytes - before.request_bytes,
            response_bytes: after.response_bytes - before.response_bytes,
            retries: after.retries - before.retries,
            shed: after.shed - before.shed,
        }
    }

    pub fn wire_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

/// How a phase observes its ops beyond timing them.
#[derive(Clone, Default)]
pub struct Observe {
    /// Record spans (and bracket each op) through this probe.
    pub probe: Probe,
    /// Keep wire bytes and inputs for this many ops of each kind.
    pub capture_per_kind: usize,
    /// Count allocations made while an op executes.
    pub meter_allocs: bool,
}

const MAX_FAILURE_MESSAGES: usize = 5;

struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    captured: Vec<CapturedInput>,
}

fn drive(
    client: &mut dyn Client,
    kinds: usize,
    limits: Limits,
    phase_started_ns: u64,
    observe: &Observe,
) -> ClientRun {
    let deadline_ns = limits.duration.map(|d| phase_started_ns + d.as_nanos() as u64);
    let mut run = ClientRun {
        samples: Vec::with_capacity(limits.ops_per_client.unwrap_or(1 << 16)),
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        captured: Vec::new(),
    };
    let mut captured_of_kind = vec![0usize; kinds];
    let recorder = observe.probe.recorder();
    loop {
        if limits.ops_per_client.is_some_and(|n| run.attempted as usize >= n)
            || deadline_ns.is_some_and(|d| now_ns() >= d)
        {
            break;
        }
        let kind = client.prepare();
        let capture = recorder.is_some() && captured_of_kind[kind] < observe.capture_per_kind;
        if capture {
            captured_of_kind[kind] += 1;
            run.captured.push(CapturedInput { thread: thread_index(), input: client.input() });
        }
        if let Some(r) = recorder {
            r.op_begin(kind, capture);
        }
        let started = now_ns();
        let outcome = if observe.meter_allocs {
            crate::alloc::metered(|| client.execute(&observe.probe))
        } else {
            client.execute(&observe.probe)
        };
        let done = now_ns();
        let latency_ns = done - started;
        if let Some(r) = recorder {
            r.op_end(kind);
        }
        run.attempted += 1;
        let checked = match outcome {
            Ok(()) => client.verify(),
            Err(e) => Err(format!("call failed: {e:?}")),
        };
        match checked {
            Ok(rows) => run.samples.push(Sample {
                kind: kind as u8,
                done_ns: done - phase_started_ns,
                latency_ns,
                rows: rows as u32,
            }),
            Err(message) => {
                run.failed += 1;
                if run.failures.len() < MAX_FAILURE_MESSAGES {
                    run.failures.push(message);
                }
            }
        }
    }
    run
}

/// Run every client of `instance` through one phase, each on its own
/// thread, and gather what they measured.
pub fn run_phase(spec: &Spec, instance: &mut Instance, limits: Limits, observe: &Observe) -> Phase {
    let before = instance.client_bus.stats();
    let allocs_before = crate::alloc::counted();
    let started = now_ns();
    let kinds = spec.kinds.len();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = instance
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || drive(client.as_mut(), kinds, limits, started, observe))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let mut phase = Phase {
        wall_ns: now_ns() - started,
        bus: StatsDelta::between(before, instance.client_bus.stats()),
        allocs: crate::alloc::counted() - allocs_before,
        ..Phase::default()
    };
    for run in runs {
        phase.samples.extend(run.samples);
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.failures.extend(run.failures);
        phase.captured.extend(run.captured);
    }
    phase.failures.truncate(MAX_FAILURE_MESSAGES);
    phase
}

/// Run every client's closing check; each failure counts as one failed
/// op, so a wrong final state cannot pass as a clean run.
pub fn finish(instance: &mut Instance, phase: &mut Phase) {
    for client in &mut instance.clients {
        if let Err(message) = client.finish() {
            phase.attempted += 1;
            phase.failed += 1;
            phase.failures.push(message);
        }
    }
}

/// Windows a timed phase is cut into, and which of them a headline
/// figure is read from: the third-best of twenty.
///
/// The sandbox this runs in is a shared two-core VM whose speed wanders
/// by several percent over seconds and by more over minutes; a whole-run
/// median follows the machine's mood and cannot repeat within any useful
/// bound. Interference only ever slows a window down, so the quietest
/// windows say what the program costs; the third-best rather than the
/// best, so one lucky window does not set the figure. A change to the
/// program moves every window, the quiet ones included, and shows in
/// full.
pub const WINDOWS: usize = 20;
const QUIET_RANK: usize = 2;

/// One kind's latency figures over a phase.
pub struct KindLatency {
    pub name: &'static str,
    pub samples: usize,
    /// The window p50 / p90 of the third-quietest window.
    pub p50_us: f64,
    pub p90_us: f64,
    /// Over the whole phase, interference included: the median, and the
    /// highest percentile with ten samples beyond it, if any.
    pub whole_p50_us: f64,
    pub tail: Option<(f64, f64)>,
}

pub struct Summary {
    pub kinds: Vec<KindLatency>,
    /// Share-weighted sums of the per-kind figures.
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    /// The completion rate of the third-busiest window.
    pub ops_per_s: f64,
    pub rows_per_s: f64,
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The third-best of `values` (the best, if there are fewer than three);
/// NaN when there are none.
fn quiet(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values.get(QUIET_RANK.min(values.len().saturating_sub(1))).copied().unwrap_or(f64::NAN)
}

/// Reduce a phase's samples to the headline figures. A kind that
/// completed no op makes the headline latencies NaN: the run is already
/// failed, and a silent zero would read as a fast one.
pub fn summarise(spec: &Spec, phase: &Phase) -> Summary {
    let window_ns = (phase.wall_ns / WINDOWS as u64).max(1);
    let window_of = |s: &Sample| ((s.done_ns / window_ns) as usize).min(WINDOWS - 1);
    let window_s = window_ns as f64 / 1e9;

    let mut kinds = Vec::with_capacity(spec.kinds.len());
    let (mut p50, mut p90) = (0.0, 0.0);
    for (i, kind) in spec.kinds.iter().enumerate() {
        let mut windows: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
        for s in phase.samples.iter().filter(|s| s.kind as usize == i) {
            windows[window_of(s)].push(s.latency_ns);
        }
        let mut all: Vec<u64> = windows.iter().flatten().copied().collect();
        all.sort_unstable();
        windows.retain(|w| !w.is_empty());
        windows.iter_mut().for_each(|w| w.sort_unstable());
        let quiet_window =
            |q: f64| quiet(windows.iter().map(|w| micros(percentile(w, q))).collect(), true);
        let (p50_us, p90_us) = (quiet_window(0.50), quiet_window(0.90));
        p50 += kind.share * p50_us;
        p90 += kind.share * p90_us;
        kinds.push(KindLatency {
            name: kind.name,
            samples: all.len(),
            p50_us,
            p90_us,
            whole_p50_us: if all.is_empty() { f64::NAN } else { micros(percentile(&all, 0.5)) },
            tail: highest_supported_tail(all.len()).map(|q| (q, micros(percentile(&all, q)))),
        });
    }

    let mut ops = [0u64; WINDOWS];
    let mut rows = [0u64; WINDOWS];
    for s in &phase.samples {
        ops[window_of(s)] += 1;
        rows[window_of(s)] += u64::from(s.rows);
    }
    Summary {
        kinds,
        latency_p50_us: p50,
        latency_p90_us: p90,
        ops_per_s: quiet(ops.iter().map(|&n| n as f64 / window_s).collect(), false),
        rows_per_s: quiet(rows.iter().map(|&n| n as f64 / window_s).collect(), false),
    }
}
