//! One run of one workload: set up, warm up, measure, check, report.

use crate::engine::{self, Limits, Observe, Phase, Summary};
use crate::idle::IdleGuard;
use crate::json::Json;
use crate::shadow::{self, ShadowedOp};
use crate::trace::{self, Level, OpBreakdown, Probe, Recorder, Trace};
use crate::workloads::{Instance, Spec};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, so one slow page-fault
/// storm or scheduler hiccup does not set the figure.
const SETUP_REPEATS: usize = 5;

/// The default `--seed` (the paper's VLDB 2005 publication date).
pub const DEFAULT_SEED: u64 = 20_050_830;

/// Ops of each kind whose wire bytes are kept for the shadow calls.
const CAPTURE_PER_KIND: usize = 8;
/// Ops written in full to `trace-<workload>.json`; every traced op is
/// still analysed and asserted.
const TRACE_OPS_WRITTEN: usize = 256;
/// The traced phase stops early rather than hold more spans than this.
const MAX_TRACED_OPS: usize = 20_000;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1.0 for real runs; the self-tests shrink every size with it.
    pub scale: f64,
    /// Run socket-bound workloads under an [`IdleGuard`]. The command
    /// line does; the self-tests, whose executable is the test harness,
    /// do not.
    pub idle_guard: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Printed, not gated.
    pub diagnostics: Json,
    /// The trace document, on a traced run.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

fn set_up(spec: &Spec, config: &Config) -> (Instance, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut instance = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first (its sockets and threads),
        // outside the timed part.
        drop(instance.take());
        let started = Instant::now();
        instance = Some((spec.setup)(config.seed, config.scale));
        times.push(started.elapsed().as_secs_f64());
    }
    (instance.expect("SETUP_REPEATS is at least one"), crate::stats::median(&times))
}

/// Ops attempted and failed over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.failures.extend(phase.failures.iter().cloned());
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn latency_diagnostics(summary: &Summary) -> Json {
    Json::Arr(
        summary
            .kinds
            .iter()
            .map(|k| {
                let mut fields = vec![
                    ("kind", Json::from(k.name)),
                    ("samples", Json::from(k.samples as u64)),
                    ("latency_p50_us", Json::from(k.p50_us)),
                    ("latency_p90_us", Json::from(k.p90_us)),
                    ("whole_run_p50_us", Json::from(k.whole_p50_us)),
                ];
                if let Some((q, value)) = k.tail {
                    fields.push(("whole_run_tail_percentile", Json::from(q)));
                    fields.push(("whole_run_tail_us", Json::from(value)));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

pub fn run(spec: &Spec, config: &Config) -> Outcome {
    let (mut instance, setup_s) = set_up(spec, config);
    let mut totals = Tally::default();
    let idle_guard = (config.idle_guard && instance.transport.is_some()).then(IdleGuard::start);
    let idle_spinners = idle_guard.as_ref().map_or(0, IdleGuard::spinners) as u64;

    // Warm-up: a fixed number of ops, so what is counted over it (wire
    // bytes, messages, allocations) is exact for a seed however fast the
    // machine is.
    let warmup_ops = crate::workloads::scaled(spec.warmup_ops, config.scale, 20);
    let observe = Observe { meter_allocs: config.trace, ..Observe::default() };
    let warmup = engine::run_phase(spec, &mut instance, Limits::ops(warmup_ops), &observe);
    totals.absorb(&warmup);

    let seconds = Duration::from_secs_f64(config.seconds);
    let (metrics, diagnostics, trace) = if config.trace {
        traced_run(spec, config, &mut instance, &mut totals, &warmup, seconds)
    } else {
        let mut measured =
            engine::run_phase(spec, &mut instance, Limits::duration(seconds), &Observe::default());
        engine::finish(&mut instance, &mut measured);
        totals.absorb(&measured);
        let summary = engine::summarise(spec, &measured);
        let wire_bytes = warmup.bus.wire_bytes() as f64;
        let metrics = vec![
            metric("latency_p50_us", "us", summary.latency_p50_us),
            metric("latency_p90_us", "us", summary.latency_p90_us),
            metric("ops_per_s", "1/s", summary.ops_per_s),
            metric("rows_per_s", "1/s", summary.rows_per_s),
            metric("wire_bytes_per_op", "B", wire_bytes / warmup.samples.len().max(1) as f64),
            metric("wire_bytes_per_row", "B", wire_bytes / warmup.rows().max(1) as f64),
            metric("setup_s", "s", setup_s),
        ];
        let diagnostics = Json::obj([
            ("workload", Json::from(spec.name)),
            ("seed", Json::from(config.seed)),
            ("measured_s", Json::from(measured.wall_ns as f64 / 1e9)),
            ("ops", Json::from(measured.samples.len() as u64)),
            ("failed_ratio", Json::from(totals.failed as f64 / totals.attempted.max(1) as f64)),
            ("kinds", latency_diagnostics(&summary)),
            ("warmup_ops", Json::from(warmup.samples.len() as u64)),
            ("peak_rss_mb", Json::from(peak_rss_mb())),
            ("threads", Json::from(instance.clients.len() as u64)),
            ("idle_spinners", Json::from(idle_spinners)),
        ]);
        (metrics, diagnostics, None)
    };

    drop(idle_guard);
    Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        failures: totals.failures,
        metrics,
        diagnostics,
        trace,
    }
}

/// The `--trace 1` run: an untraced phase for the overhead base, then the
/// seam wrappers go in and the same op stream continues with spans
/// recorded, then the shadow calls. The exact counts come from the
/// warm-up, as on an untraced run.
fn traced_run(
    spec: &Spec,
    config: &Config,
    instance: &mut Instance,
    totals: &mut Tally,
    warmup: &Phase,
    seconds: Duration,
) -> (Vec<Metric>, Json, Option<Json>) {
    let untraced = engine::run_phase(
        spec,
        instance,
        Limits::duration(seconds.mul_f64(0.4)),
        &Observe::default(),
    );
    totals.absorb(&untraced);

    let recorder = Recorder::new(1 << 20);
    trace::install(
        &recorder,
        &instance.client_bus,
        &instance.service_bus,
        instance.transport.clone(),
    );
    let observe = Observe {
        probe: Probe::on(recorder.clone()),
        capture_per_kind: CAPTURE_PER_KIND,
        meter_allocs: false,
    };
    let limits = Limits {
        ops_per_client: Some(MAX_TRACED_OPS / instance.clients.len()),
        duration: Some(seconds.mul_f64(0.4)),
    };
    let mut traced = engine::run_phase(spec, instance, limits, &observe);
    engine::finish(instance, &mut traced);
    totals.absorb(&traced);

    let mut structure_errors = Vec::new();
    let (trace, breakdowns) = match recorder.finish() {
        Ok(trace) => {
            let mut breakdowns = Vec::with_capacity(trace.ops.len());
            for &op in &trace.ops {
                match trace.breakdown(op) {
                    Ok(b) => breakdowns.push(b),
                    Err(e) => {
                        structure_errors.push(e);
                        breakdowns.push(OpBreakdown::default());
                    }
                }
            }
            (Some(trace), breakdowns)
        }
        Err(e) => {
            structure_errors.push(e);
            (None, Vec::new())
        }
    };
    // A trace that does not partition is a wrong answer from the
    // benchmark itself: fail the run rather than print numbers from it.
    if !structure_errors.is_empty() || breakdowns.is_empty() {
        totals.failed += structure_errors.len().max(1) as u64;
        totals.attempted += structure_errors.len().max(1) as u64;
        structure_errors.truncate(3);
        totals.failures.extend(structure_errors.into_iter().map(|e| format!("trace: {e}")));
    }

    let shadowed = match &trace {
        Some(trace) => shadow::run(trace, &breakdowns, &traced.captured, &instance.oracle),
        None => Vec::new(),
    };

    let base = engine::summarise(spec, &untraced);
    let with_trace = engine::summarise(spec, &traced);
    let layers = LayerTable::build(spec, &breakdowns, &shadowed);
    let per_op = |n: u64| n as f64 / warmup.attempted.max(1) as f64;

    let mut metrics = vec![
        metric("client.between_calls_ns", "ns", layers.mean(|b| b.between_calls_ns)),
        metric("soap.request_path_ns", "ns", layers.mean(|b| b.request_path_ns)),
        metric("soap.transport_self_ns", "ns", layers.mean(|b| b.transport_self_ns)),
        metric("core.service_handle_ns", "ns", layers.mean(|b| b.handle_ns)),
        metric("soap.response_path_ns", "ns", layers.mean(|b| b.response_path_ns)),
        metric("fed.legs_per_query", "count", layers.legs_per_query),
        metric("fed.leg_ns", "ns", layers.leg_median_ns),
        metric("fed.leg_max_ns", "ns", layers.leg_max_mean_ns),
        metric("fed.leg_wire_bytes", "B", layers.mean(|b| b.leg_wire_bytes)),
        metric("fed.gather_self_ns", "ns", layers.mean(|b| b.gather_self_ns)),
    ];
    metrics.extend(shadow::ALL.map(|name| metric(name, "ns", layers.shadow(name))));
    metrics.extend([
        metric("core.explained_ratio", "ratio", layers.explained_ratio),
        metric("core.dispatch_residual_ns", "ns", layers.dispatch_residual_ns),
        metric("messages_per_op", "count", per_op(warmup.bus.messages)),
        metric("request_bytes_per_op", "B", per_op(warmup.bus.request_bytes)),
        metric("response_bytes_per_op", "B", per_op(warmup.bus.response_bytes)),
        metric("rows_per_op", "count", per_op(warmup.rows())),
        metric("retries", "count", warmup.bus.retries as f64),
        metric("shed", "count", warmup.bus.shed as f64),
        metric("allocs_per_op", "count", per_op(warmup.allocs)),
        metric("trace_overhead_ratio", "ratio", with_trace.latency_p50_us / base.latency_p50_us),
    ]);

    let diagnostics = Json::obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(config.seed)),
        ("untraced_ops", Json::from(untraced.samples.len() as u64)),
        ("traced_ops", Json::from(traced.samples.len() as u64)),
        ("shadowed_ops", Json::from(shadowed.len() as u64)),
        ("allocs_exact", Json::Bool(instance.clients.len() == 1)),
        ("untraced_kinds", latency_diagnostics(&base)),
        ("traced_kinds", latency_diagnostics(&with_trace)),
        ("layers_by_kind", layers.by_kind_json(spec)),
    ]);
    let document = trace.map(|t| trace_document(spec, config, &t, &breakdowns, &shadowed, &layers));
    (metrics, diagnostics, document)
}

/// Per-kind means of the seam partition and the shadows, and their
/// share-weighted combination — the same weighting as the headline
/// latencies, so a layer's figure reads against them.
struct LayerTable {
    /// Per kind: the traced ops' breakdowns.
    kinds: Vec<Vec<OpBreakdown>>,
    shares: Vec<f64>,
    /// Per kind: mean ns per shadow name over the kind's captured ops.
    shadows: Vec<Vec<(&'static str, f64)>>,
    /// Per kind: the captured ops' mean handle time — what that kind's
    /// in-handle shadows are to be read against (the captured ops are a
    /// sample of eight, not the whole kind).
    shadowed_handle_ns: Vec<f64>,
    legs_per_query: f64,
    leg_median_ns: f64,
    leg_max_mean_ns: f64,
    explained_ratio: f64,
    dispatch_residual_ns: f64,
}

impl LayerTable {
    fn build(spec: &Spec, breakdowns: &[OpBreakdown], shadowed: &[ShadowedOp]) -> LayerTable {
        let mut kinds = vec![Vec::new(); spec.kinds.len()];
        for b in breakdowns {
            kinds[b.kind].push(b.clone());
        }
        let shadows = (0..spec.kinds.len())
            .map(|kind| {
                let ops: Vec<&ShadowedOp> = shadowed.iter().filter(|s| s.kind == kind).collect();
                shadow::ALL
                    .into_iter()
                    .filter_map(|name| {
                        let values: Vec<u64> = ops
                            .iter()
                            .filter_map(|op| op.shadows.iter().find(|(n, _)| *n == name))
                            .map(|(_, ns)| *ns)
                            .collect();
                        (!values.is_empty()).then(|| {
                            (name, values.iter().sum::<u64>() as f64 / values.len() as f64)
                        })
                    })
                    .collect()
            })
            .collect();

        let shadowed_handle_ns = (0..spec.kinds.len())
            .map(|kind| {
                let ops: Vec<u64> =
                    shadowed.iter().filter(|s| s.kind == kind).map(|s| s.handle_ns).collect();
                ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64
            })
            .collect();

        let federated: Vec<&OpBreakdown> =
            breakdowns.iter().filter(|b| !b.leg_ns.is_empty()).collect();
        let mut all_legs: Vec<u64> =
            federated.iter().flat_map(|b| b.leg_ns.iter().copied()).collect();
        all_legs.sort_unstable();
        let mean_of = |f: &dyn Fn(&OpBreakdown) -> f64| {
            if federated.is_empty() {
                0.0
            } else {
                federated.iter().map(|b| f(b)).sum::<f64>() / federated.len() as f64
            }
        };

        let explained: u64 = shadowed.iter().map(ShadowedOp::in_handle_ns).sum();
        let handled: u64 = shadowed.iter().map(|s| s.handle_ns).sum();
        LayerTable {
            kinds,
            shares: spec.kinds.iter().map(|k| k.share).collect(),
            shadows,
            shadowed_handle_ns,
            legs_per_query: mean_of(&|b| b.leg_ns.len() as f64),
            leg_median_ns: if all_legs.is_empty() {
                0.0
            } else {
                crate::stats::percentile(&all_legs, 0.5) as f64
            },
            leg_max_mean_ns: mean_of(&|b| b.leg_ns.iter().copied().max().unwrap_or(0) as f64),
            explained_ratio: if handled == 0 { 0.0 } else { explained as f64 / handled as f64 },
            dispatch_residual_ns: if shadowed.is_empty() {
                0.0
            } else {
                (handled as f64 - explained as f64) / shadowed.len() as f64
            },
        }
    }

    fn kind_mean(&self, kind: usize, field: impl Fn(&OpBreakdown) -> u64) -> f64 {
        let ops = &self.kinds[kind];
        if ops.is_empty() {
            0.0
        } else {
            ops.iter().map(&field).sum::<u64>() as f64 / ops.len() as f64
        }
    }

    fn mean(&self, field: impl Fn(&OpBreakdown) -> u64) -> f64 {
        (0..self.kinds.len()).map(|k| self.shares[k] * self.kind_mean(k, &field)).sum()
    }

    fn shadow(&self, name: &str) -> f64 {
        self.shadows
            .iter()
            .zip(&self.shares)
            .map(|(kind, share)| {
                share * kind.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, ns)| *ns)
            })
            .sum()
    }

    fn by_kind_json(&self, spec: &Spec) -> Json {
        Json::Arr(
            (0..self.kinds.len())
                .map(|k| {
                    let mut fields = vec![
                        ("kind", Json::from(spec.kinds[k].name)),
                        ("traced_ops", Json::from(self.kinds[k].len() as u64)),
                        ("root_ns", Json::from(self.kind_mean(k, |b| b.root_ns))),
                        (
                            "client.between_calls_ns",
                            Json::from(self.kind_mean(k, |b| b.between_calls_ns)),
                        ),
                        (
                            "soap.request_path_ns",
                            Json::from(self.kind_mean(k, |b| b.request_path_ns)),
                        ),
                        (
                            "soap.transport_self_ns",
                            Json::from(self.kind_mean(k, |b| b.transport_self_ns)),
                        ),
                        ("core.service_handle_ns", Json::from(self.kind_mean(k, |b| b.handle_ns))),
                        (
                            "soap.response_path_ns",
                            Json::from(self.kind_mean(k, |b| b.response_path_ns)),
                        ),
                        ("messages", Json::from(self.kind_mean(k, |b| b.messages))),
                        ("request_bytes", Json::from(self.kind_mean(k, |b| b.request_bytes))),
                        ("response_bytes", Json::from(self.kind_mean(k, |b| b.response_bytes))),
                    ];
                    if self.kinds[k].iter().any(|b| !b.leg_ns.is_empty()) {
                        fields.extend([
                            (
                                "fed.legs_per_query",
                                Json::from(self.kind_mean(k, |b| b.leg_ns.len() as u64)),
                            ),
                            (
                                "fed.leg_max_ns",
                                Json::from(
                                    self.kind_mean(k, |b| {
                                        b.leg_ns.iter().copied().max().unwrap_or(0)
                                    }),
                                ),
                            ),
                            (
                                "fed.leg_wire_bytes",
                                Json::from(self.kind_mean(k, |b| b.leg_wire_bytes)),
                            ),
                            (
                                "fed.gather_self_ns",
                                Json::from(self.kind_mean(k, |b| b.gather_self_ns)),
                            ),
                        ]);
                    }
                    if !self.shadows[k].is_empty() {
                        fields.push((
                            "shadowed_ops_handle_ns",
                            Json::from(self.shadowed_handle_ns[k]),
                        ));
                    }
                    for (name, ns) in &self.shadows[k] {
                        fields.push((
                            *name,
                            Json::obj([("ns", Json::from(*ns)), ("shadow", Json::Bool(true))]),
                        ));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

fn span_name(trace: &Trace, span: usize) -> &'static str {
    let s = &trace.spans[span];
    let under_handle = s.parent.is_some_and(|p| trace.spans[p].level == Level::Handle);
    match (s.level, under_handle) {
        (Level::Wire, true) => "fed.leg",
        (level, _) => level.name(),
    }
}

/// `trace-<workload>.json`: the first ops' spans in full, every captured
/// op's shadows, and the per-kind layer table over all traced ops.
fn trace_document(
    spec: &Spec,
    config: &Config,
    trace: &Trace,
    breakdowns: &[OpBreakdown],
    shadowed: &[ShadowedOp],
    layers: &LayerTable,
) -> Json {
    let ops = trace.ops.iter().enumerate().take(TRACE_OPS_WRITTEN).map(|(nth, &op)| {
        let root = &trace.spans[op];
        let spans = (0..trace.spans.len()).filter(|&i| trace.spans[i].op == Some(op)).map(|i| {
            let s = &trace.spans[i];
            let mut fields = vec![
                ("id", Json::from(i as u64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                ("name", Json::from(span_name(trace, i))),
                ("thread", Json::from(u64::from(s.thread))),
                ("start_ns", Json::from(s.start)),
                ("end_ns", Json::from(s.end)),
                ("self_ns", Json::from(trace.self_time(i))),
            ];
            if !matches!(s.level, Level::Op | Level::Call) {
                fields.push(("address", Json::from(trace.addrs[s.tag as usize].as_str())));
            }
            if s.level == Level::Wire {
                fields.push(("request_bytes", Json::from(u64::from(s.request_bytes))));
                fields.push(("response_bytes", Json::from(u64::from(s.response_bytes))));
            }
            Json::obj(fields)
        });
        let b = &breakdowns[nth];
        let mut fields = vec![
            ("op", Json::from(nth as u64)),
            ("kind", Json::from(spec.kinds[root.tag as usize].name)),
            ("root_ns", Json::from(b.root_ns)),
            (
                "self_ns",
                Json::obj([
                    ("client.between_calls_ns", Json::from(b.between_calls_ns)),
                    ("soap.request_path_ns", Json::from(b.request_path_ns)),
                    ("soap.transport_self_ns", Json::from(b.transport_self_ns)),
                    ("core.service_handle_ns", Json::from(b.handle_ns)),
                    ("soap.response_path_ns", Json::from(b.response_path_ns)),
                ]),
            ),
            ("spans", Json::Arr(spans.collect())),
        ];
        if let Some(s) = shadowed.iter().find(|s| s.op == op) {
            fields.push((
                "shadows",
                Json::Arr(
                    s.shadows
                        .iter()
                        .map(|(name, ns)| {
                            Json::obj([
                                ("name", Json::from(*name)),
                                ("ns", Json::from(*ns)),
                                ("shadow", Json::Bool(true)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    });
    Json::obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(config.seed)),
        ("clock", Json::from("ns since the benchmark process started; one clock for all threads")),
        ("ops_traced", Json::from(trace.ops.len() as u64)),
        ("ops_written", Json::from(trace.ops.len().min(TRACE_OPS_WRITTEN) as u64)),
        ("partition_checked", Json::from("for every traced op: sum of self_ns == root_ns")),
        ("layers_by_kind", layers.by_kind_json(spec)),
        ("ops", Json::Arr(ops.collect())),
    ])
}
