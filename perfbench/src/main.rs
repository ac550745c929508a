//! The repository's benchmark: one workload per process, measured end to
//! end with tracing off, or layer by layer with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conv2gb --seed 24301 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print the same
//! metrics, the fidelity figures and the host calibration for people.
//! Any failed operation makes the exit code nonzero. See `README.md`.

mod campaigns;
mod corpus;
mod fleet;
mod host;
mod metrics;
mod outcome;
mod pins;
mod replay;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant as WallClock;

use metrics::{median, Metrics, END_TO_END, PER_LAYER};
use outcome::Outcome;
use replay::timed;

/// Timed batches of set-ups; `setup_s` is the median of their per-set-up
/// means.
const SETUP_BATCHES: usize = 7;

/// Each batch repeats the set-up for at least this long, so the clock's
/// own cost and resolution do not show in `setup_s`.
const SETUP_BATCH_S: f64 = 0.02;

/// Seeds per `campaigns` pass.
const CAMPAIGN_SEEDS: u64 = 8;

/// Seeds per `resilience-fleet` pass.
const FLEET_SEEDS: u64 = 2;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Conv2Gb,
    Stacked32,
    Fleet,
    Campaigns,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("conv2gb", Workload::Conv2Gb),
        ("stacked32", Workload::Stacked32),
        ("resilience-fleet", Workload::Fleet),
        ("campaigns", Workload::Campaigns),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed `{value}` is not a whole number"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not a positive number"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is neither 0 nor 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(pins::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's inputs, built ahead of the timed passes.
enum Bench {
    Corpus(Box<corpus::Setup>),
    Fleet(fleet::Setup),
    Campaigns(campaigns::Setup),
}

/// Parses the command line and builds the workload: the set-up that
/// `setup_s` times.
fn setup(argv: &[String], root: &Path, scratch: &Path) -> Result<(Args, Bench), String> {
    let args = parse_args(argv)?;
    let bench = match args.workload {
        Workload::Conv2Gb | Workload::Stacked32 => {
            let path = root.join("docs/figures_reference_output.txt");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let slice = if args.workload == Workload::Conv2Gb {
                corpus::Slice::Conv2Gb
            } else {
                corpus::Slice::Stacked32
            };
            Bench::Corpus(Box::new(corpus::setup(slice, args.seed, &text)?))
        }
        Workload::Fleet => Bench::Fleet(fleet::setup(args.seed, FLEET_SEEDS, scratch)?),
        Workload::Campaigns => Bench::Campaigns(campaigns::setup(args.seed, CAMPAIGN_SEEDS)),
    };
    Ok((args, bench))
}

/// One untraced pass, judged against the pinned digest.
fn untraced_pass(bench: &Bench, pin: Option<u64>) -> Outcome {
    let mut out = match bench {
        Bench::Corpus(s) => corpus::pass(s),
        Bench::Fleet(s) => fleet::pass(s),
        Bench::Campaigns(s) => campaigns::pass(s, None),
    };
    out.check_pin(pin);
    out
}

/// Folds a probe's operations and engine counts into `out`; its digest
/// and simulated time stay the probe's own.
fn merge_probe(out: &mut Outcome, probe: Outcome) {
    out.attempted += probe.attempted;
    out.failed += probe.failed.min(probe.attempted);
    out.problems.extend(probe.problems);
    out.engines.add(&probe.engines);
}

/// One traced pass: the workload's own layers, then probes for the
/// layers off its path (the one-seed campaigns, and the one-seed fleet
/// for the orchestrator metrics — and, for `campaigns`, for every
/// controller-side layer, which the campaigns do not expose).
fn traced_pass(
    bench: &Bench,
    pin: Option<u64>,
    seed: u64,
    scratch: &Path,
    m: &mut Metrics,
) -> Outcome {
    let fleet_probe = |m: &mut Metrics, layers: bool| -> Result<Outcome, String> {
        Ok(fleet::traced(&fleet::setup(seed, 1, scratch)?, m, layers))
    };
    let (mut out, probes) = match bench {
        Bench::Corpus(s) => {
            let out = corpus::traced(s, m);
            let camp = campaigns::pass(&campaigns::setup(seed, 1), Some(m));
            (out, vec![Ok(camp), fleet_probe(m, false)])
        }
        Bench::Fleet(s) => {
            let out = fleet::traced(s, m, true);
            let camp = campaigns::pass(&campaigns::setup(seed, 1), Some(m));
            (out, vec![Ok(camp)])
        }
        Bench::Campaigns(s) => {
            let out = campaigns::pass(s, Some(m));
            (out, vec![fleet_probe(m, true)])
        }
    };
    out.check_pin(pin);
    for p in probes {
        match p {
            Ok(p) => merge_probe(&mut out, p),
            Err(e) => out.fail(1, e),
        }
    }
    out.engines.emit(m);
    out
}

fn main() -> ExitCode {
    let t0 = WallClock::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let scratch: PathBuf = root
        .join(".bench_build")
        .join(format!("perfbench-tmp-{}", std::process::id()));

    let (args, bench) = match setup(&argv, &root, &scratch) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cold_setup_s = t0.elapsed().as_secs_f64();
    let mut setup_s = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let start = WallClock::now();
        let mut n = 0u32;
        while n == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            std::hint::black_box(setup(&argv, &root, &scratch).is_ok());
            n += 1;
        }
        setup_s.push(start.elapsed().as_secs_f64() / f64::from(n));
    }
    let pin = pins::pinned(args.workload.name(), args.seed);

    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut walls = Vec::new();
    let (mut sim_ms, mut report, mut digest);
    let measure = WallClock::now();
    loop {
        let (ns, out) = timed(|| {
            if args.trace {
                traced_pass(&bench, pin, args.seed, &scratch, &mut m)
            } else {
                untraced_pass(&bench, pin)
            }
        });
        walls.push(ns / 1e9);
        attempted += out.attempted;
        failed += out.failed.min(out.attempted);
        problems.extend(out.problems);
        sim_ms = out.sim_ms;
        report = out.report;
        digest = out.digest;
        // A traced run makes one pass: its figures are per-layer ratios,
        // not a timing to take the median of. An untraced run stops at the
        // pass boundary nearest `--seconds`, so it lasts about that long
        // however long a pass takes on the host.
        if args.trace || measure.elapsed().as_secs_f64() + ns / 2e9 >= args.seconds {
            break;
        }
    }
    let rss = host::peak_rss_mb();
    let wall_s = median(&walls);
    if !args.trace {
        m.set("wall_s", wall_s);
        m.set("setup_s", median(&setup_s));
        m.set("sim_ms_per_s", sim_ms / wall_s);
        if let Some(rss) = rss {
            m.set("peak_rss_mb", rss);
        }
    }
    // Untraced runs print the calibration beside the JSON; traced runs
    // report it in it.
    host::calibrate(&mut m);
    if scratch.exists() {
        if let Err(e) = std::fs::remove_dir_all(&scratch) {
            eprintln!("warning: cannot remove {}: {e}", scratch.display());
        }
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed {} trace {} digest {digest:#018x} cold set-up {cold_setup_s:.6}s passes {} (wall {})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        walls.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let host = PER_LAYER
        .iter()
        .filter(|(n, _)| !args.trace && n.starts_with("host."));
    for (name, unit) in table.iter().chain(host) {
        if let Some(v) = m.get(name) {
            println!("{name:<34} {v:>16.6} {unit}");
        }
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("{:<34} {failed_frac:>16.6} ratio", "failed_frac");
    for (name, v, unit) in &report {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let rendered = match m.render(table) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {rendered}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
