//! `dcmbench` — the repository's benchmark: end-to-end and per-layer
//! metrics of the DCM reproduction on three workloads (`fleet`, `control`,
//! `mesh_chaos`), with a correctness gate on every simulated output.
//!
//! ```text
//! cargo run --release --manifest-path dcmbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run trains the DCM models where the workload needs them (set-up),
//! then repeats passes of the workload — a fixed amount of simulated work
//! from the same seed — until `--seconds` of host time have gone. `wall_s`
//! sums, over the segments of a pass (`run_until` slices, controller
//! ticks, drain, summary, export), each segment's fastest time across the
//! passes. With `--trace 1` every other pass is
//! traced: spans around each layer call, a per-layer self-time table, and
//! the tracing overhead (traced minus untraced pass wall time). The last
//! line of standard output is one JSON object with the verdict and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//!
//! `--self-check` instead runs the workload three times (the seed twice,
//! then the next seed) and checks that the same seed gives the same
//! fingerprint and a different seed a different one. See `README.md` for the metrics, the
//! workloads and the predictions.

mod check;
mod metrics;
mod spans;
mod speed;
mod workloads;

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use dcm_bench::experiments::{table1, Fidelity};
use dcm_core::controller::DcmModels;

use crate::check::{check_cell, reference_line, Reference};
use crate::metrics::{Pass, RunSummary};
use crate::spans::Tracer;
use crate::speed::SpeedProbe;
use crate::workloads::{run_pass, Ctx, Workload};

/// Model trainings in one run's set-up; `setup_s` takes their median.
const TRAIN_REPS: usize = 3;
/// Extra fleet set-ups (world build and population start) in one run's
/// set-up, so the `setup_s` median has more than the passes' samples.
const FLEET_SETUP_REPS: usize = 5;

const USAGE: &str = "usage: dcmbench --workload <fleet|control|mesh_chaos> --seed <u64> \
                     --seconds <n> --trace <0|1> [--self-check]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut self_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        self_check,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dcmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    dcm_sim::runner::set_jobs(1);
    let result = if args.self_check {
        self_check(&args)
    } else {
        bench(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dcmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Trains the DCM models `TRAIN_REPS` times, recording each training as a
/// `model.train` span; returns the models and the training times.
fn train(tracer: &Rc<RefCell<Tracer>>) -> Result<(DcmModels, Vec<f64>), String> {
    let mut times = Vec::with_capacity(TRAIN_REPS);
    let mut models = None;
    for _ in 0..TRAIN_REPS {
        let from = Instant::now();
        let t1 = table1::run_table1(Fidelity::Full)
            .map_err(|e| format!("model training failed: {e:?}"))?;
        let to = Instant::now();
        tracer.borrow_mut().push("model.train", from, to, None);
        times.push(to.duration_since(from).as_secs_f64());
        models = Some(DcmModels {
            app: t1.app.report.model,
            db: t1.db.report.model,
        });
    }
    Ok((models.expect("TRAIN_REPS > 0"), times))
}

fn one_pass(
    workload: Workload,
    seed: u64,
    models: Option<DcmModels>,
    tracer: &Rc<RefCell<Tracer>>,
    speed: &Rc<RefCell<SpeedProbe>>,
    traced: bool,
) -> Pass {
    speed.borrow_mut().maybe_probe();
    tracer.borrow_mut().set_on(traced);
    let root = tracer.borrow_mut().open("bench.pass", None);
    let ctx = Ctx {
        models,
        tracer,
        speed,
        parent: root,
    };
    let cells = run_pass(workload, seed, &ctx);
    tracer.borrow_mut().close(root);
    tracer.borrow_mut().set_on(false);
    Pass {
        traced,
        root,
        cells,
    }
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# dcmbench workload={} seed={} seconds={} trace={} threads=1 nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let tracer = Rc::new(RefCell::new(Tracer::new(args.trace)));
    let speed = Rc::new(RefCell::new(SpeedProbe::default()));
    let (models, train_s) = if workload.needs_models() {
        let (models, times) = train(&tracer)?;
        (Some(models), times)
    } else {
        (None, Vec::new())
    };
    let extra_setup_s: Vec<f64> = match workload {
        Workload::Fleet => (0..FLEET_SETUP_REPS)
            .map(|_| workloads::fleet_setup_s(args.seed))
            .collect(),
        _ => Vec::new(),
    };

    // Passes until the time is up; a traced run alternates untraced and
    // traced passes and makes at least one of each.
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(one_pass(
            workload, args.seed, models, &tracer, &speed, traced,
        ));
    }

    // Correctness gate: every cell of every pass.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, pass) in passes.iter().enumerate() {
        for (j, cell) in pass.cells.iter().enumerate() {
            attempted += 1;
            let mut verdict = check_cell(workload, args.seed, cell);
            if cell.fingerprint != passes[0].cells[j].fingerprint {
                verdict
                    .problems
                    .push(format!("pass {i} disagrees with pass 0"));
            }
            if i == 0 {
                let reference = match verdict.reference {
                    Reference::Committed => "committed results row + recorded fingerprint",
                    Reference::Recorded => "recorded fingerprint",
                    Reference::None => "none for this seed (conservation + pass identity)",
                };
                println!("# cell {} reference: {reference}", cell.label);
                println!(
                    "# fingerprint {}",
                    reference_line(workload, args.seed, cell)
                );
            }
            if !verdict.problems.is_empty() {
                failed += 1;
                for p in &verdict.problems {
                    println!("# FAIL pass {i} cell {}: {p}", cell.label);
                }
            }
        }
    }

    let summary = RunSummary {
        train_s,
        extra_setup_s,
        passes,
        spans: tracer.borrow().spans().to_vec(),
        peak_rss_mb: metrics::peak_rss_mb(),
        probe_s: speed.borrow().fastest_s(),
        probes: speed.borrow().probes(),
        attempted,
        failed,
    };
    summary.print_report(workload);
    if args.trace {
        let path = metrics::write_spans(workload, args.seed, &summary.spans)?;
        println!("# spans written to {path}");
    }
    let metrics = if args.trace {
        summary.per_layer()
    } else {
        summary.end_to_end()
    };
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}

fn self_check(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload;
    let tracer = Rc::new(RefCell::new(Tracer::new(false)));
    let speed = Rc::new(RefCell::new(SpeedProbe::default()));
    let models = if workload.needs_models() {
        Some(train(&tracer)?.0)
    } else {
        None
    };
    let other = args.seed.wrapping_add(1);
    let digests = |seed: u64| -> Vec<u64> {
        one_pass(workload, seed, models, &tracer, &speed, false)
            .cells
            .iter()
            .map(|c| c.fingerprint.digest())
            .collect()
    };
    let a = digests(args.seed);
    let b = digests(args.seed);
    let c = digests(other);
    let same = a == b;
    let differs = a.iter().zip(&c).all(|(x, y)| x != y);
    println!(
        "# self-check {}: seed {} twice -> {}; seed {} -> {}",
        workload.name(),
        args.seed,
        if same {
            "same fingerprint"
        } else {
            "DIFFERENT fingerprints"
        },
        other,
        if differs {
            "different fingerprint"
        } else {
            "SAME fingerprint"
        }
    );
    Ok(if same && differs {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
