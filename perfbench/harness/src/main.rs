//! The repository benchmark: four seeded workloads driven through the
//! public library calls that users' surfaces make, timed end to end
//! with tracing off (`--trace 0`) and split by layer in a separate
//! traced run (`--trace 1`). See `perfbench/README.md` for the metric
//! table and why each workload was chosen.
//!
//! ```text
//! gprs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --refs <dir>
//! gprs-perfbench --gen-refs <dir>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod campaign;
mod metro;
mod sweep;
mod transient;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{median, peak_rss_mb, reset_peak_rss, timed, Res, Spans};

/// Inputs come in this many committed variants; `--seed` picks one
/// (`seed mod VARIANTS`), so every seed has committed reference
/// values.
pub const VARIANTS: u64 = 16;

/// Worker threads and shards of the measured configuration: the
/// benchmark host has two cores, and shards are capped at the core
/// count because each shard runs on its own OS thread whatever
/// `threads` says.
const WIDTH: usize = 2;

/// Set-up is timed at least `SETUP_REPEATS` times in an untraced run.
/// The first repeat builds the jobs' input; the others run between the
/// jobs, outside their timing, whenever the repeats so far add up to
/// less than `SETUP_SHARE` of the time since the first job started.
/// Set-up so samples the same stretch of host time as the jobs rather
/// than one burst before them: on a shared host, a one-second burst
/// can read half as fast again as the next one. `setup_s` is the
/// median of the repeats.
const SETUP_REPEATS: usize = 5;
const SETUP_SHARE: f64 = 0.2;

/// A run times at least this many jobs, however long they take.
const MIN_JOBS: usize = 3;

/// Environment variables that switch which code path the library runs;
/// the benchmark passes threads and shards explicitly instead.
const REFUSED_ENV: [&str; 3] = ["GPRS_BLOCKED_KERNEL", "GPRS_SHARDS", "RAYON_NUM_THREADS"];

/// Per-layer metrics reported by every traced run, with their units.
/// A layer the workload does not time reports 0.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("ctmc.solve_s", "s"),
    ("ctmc.ns_per_row", "ns"),
    ("ctmc.row_updates", "count"),
    ("ctmc.sweeps", "count"),
    ("ctmc.residual_checks", "count"),
    ("ctmc.fallback_rungs", "count"),
    ("ctmc.transient.solve_s", "s"),
    ("ctmc.transient.steps", "count"),
    ("ctmc.transient.ns_per_nnz_step", "ns"),
    ("ctmc.steady_solve_s", "s"),
    ("core.template.setup_s", "s"),
    ("core.template.symbolic_setups", "count"),
    ("core.generator.model_s", "s"),
    ("core.measures_s", "s"),
    ("core.cluster.solve_s", "s"),
    ("core.cluster.outer_iterations", "count"),
    ("core.cluster.cell_solves", "count"),
    ("core.cluster.surrogate_solves", "count"),
    ("core.cluster.adaptive_steps", "count"),
    ("core.cluster.cell_solve_us", "us"),
    ("core.shard.coordination_s", "s"),
    ("core.shard.scaling_1to2", "x"),
    ("exec.pool_round_us", "us"),
    ("exec.speedup_1to2", "x"),
    ("campaign.spec.parse_s", "s"),
    ("campaign.journal.recover_s", "s"),
    ("campaign.journal.append_s", "s"),
    ("campaign.journal.append_ms_p50", "ms"),
    ("campaign.journal.append_ms_p90", "ms"),
    ("campaign.journal.fsyncs", "count"),
    ("campaign.journal.bytes", "bytes"),
    ("campaign.item_solve_s", "s"),
    ("campaign.report.emit_s", "s"),
    ("campaign.items_reused", "count"),
    ("campaign.retries", "count"),
    ("campaign.degraded", "count"),
    ("check.max_rel_err", "ratio"),
    ("check.failed_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Threads and shards of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    pub threads: usize,
    pub shards: usize,
}

/// What one job produced, reduced to what the checks need.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Raw bits of every output value: two jobs on the same input must
    /// agree exactly, whatever their threads, shards or tracing.
    pub fingerprint: Vec<u64>,
    /// Deterministic work counts derived from the outputs; they must
    /// repeat exactly across jobs, thread counts and shard counts.
    pub counts: Vec<(&'static str, u64)>,
    /// Operations attempted (rate points, cell solves, campaign items
    /// or transient horizons).
    pub attempted: u64,
    /// Operations that errored or were served degraded.
    pub failed: u64,
    /// Values compared against the committed references, in the
    /// reference file's order.
    pub checked: Vec<f64>,
}

/// A replay of one job through the layers' public functions, with a
/// span around each call.
pub struct Traced {
    /// Wall time of the replay.
    pub wall_s: f64,
    pub spans: Spans,
    /// The replay's outputs: must equal the untraced job's bitwise.
    pub report: JobReport,
    /// Exact counts only the replay can see; they must repeat exactly
    /// between two replays.
    pub counts: Vec<(&'static str, u64)>,
}

/// Per-layer metric values of a traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload of the benchmark.
pub trait Workload {
    type Input;
    /// Largest relative error against the committed references that
    /// still counts as a correct answer: 10⁴ times the inner solve
    /// tolerance (the largest amplification seen is about 10²).
    const REL_ERR_LIMIT: f64;
    /// Whether a job runs on the calling thread alone. Work that does
    /// alternates between the allowed CPUs, one repeat each, so that
    /// every run samples each core's contention from other tenants
    /// rather than whichever core the scheduler happened to pick.
    const SINGLE_THREADED: bool = false;
    /// Whether set-up runs on the calling thread alone (see
    /// `SINGLE_THREADED`); such set-ups alternate one batch of
    /// back-to-back repeats per CPU.
    const SINGLE_THREADED_SETUP: bool = true;
    /// Builds the inputs of `variant`; loads the committed reference
    /// values from `refs` unless it is `None`.
    fn setup(variant: u64, refs: Option<&Path>) -> Res<Self::Input>;
    /// The committed reference values of the input.
    fn reference(input: &Self::Input) -> &[f64];
    /// Work done once per run after set-up, outside every timing: the
    /// reference outputs the jobs' checks compare with.
    fn prepare(_input: &Self::Input) -> Res<()> {
        Ok(())
    }
    /// Puts the input back in its starting state before each job,
    /// outside the job's timing.
    fn stage(_input: &Self::Input) -> Res<()> {
        Ok(())
    }
    /// One complete job, as a user's surface runs it.
    fn job(input: &Self::Input, exec: Exec) -> Res<JobReport>;
    /// The reference values, solved at a tight tolerance.
    fn tight(input: &Self::Input) -> Res<Vec<f64>>;
    /// Other configurations the traced run times against the measured
    /// one, each with the layer metric that receives
    /// `wall(other) / wall(measured)`. Their outputs and counts must
    /// match the measured configuration's exactly.
    fn alternatives() -> Vec<(&'static str, Exec)>;
    /// The configuration whose untraced wall time the replay is
    /// compared with for `trace.overhead_frac`.
    fn replay_exec() -> Exec;
    /// Replays one job through the layers with spans around each call,
    /// and fills in the layer metrics only the replay can give.
    fn traced(input: &Self::Input, layers: &mut Layers) -> Res<Traced>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    refs: PathBuf,
}

fn parse_args() -> Res<Option<Args>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut refs = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(util::err("--seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(util::err("--seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--refs" => refs = Some(PathBuf::from(value)),
            "--gen-refs" => {
                gen_refs(Path::new(value))?;
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        refs: refs.ok_or("--refs is required")?,
    }))
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Res<i32> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it switches which code path runs, so the benchmark refuses it \
                 (threads and shards are passed explicitly)"
            ));
        }
    }
    let Some(args) = parse_args()? else {
        return Ok(0);
    };
    let variant = args.seed % VARIANTS;
    let refs = Some(args.refs.as_path());
    let outcome = match args.workload.as_str() {
        "figure_sweep" => run::<sweep::FigureSweep>(&args, variant, refs),
        "metro_torus" => run::<metro::MetroTorus>(&args, variant, refs),
        "campaign_journal" => run::<campaign::CampaignJournal>(&args, variant, refs),
        "reconfig_transient" => run::<transient::ReconfigTransient>(&args, variant, refs),
        other => return Err(format!("unknown workload {other}")),
    }?;
    // Work files live under .bench_work; each input removes its own.
    let _ = std::fs::remove_dir(".bench_work");
    println!("{}", outcome.to_json());
    Ok(if outcome.correct { 0 } else { 1 })
}

/// The measured configuration, capped at the host's core count.
fn measured_exec() -> Exec {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Exec {
        threads: WIDTH.min(cores),
        shards: WIDTH.min(cores),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite measurement is reported as
/// -1 and the run is marked incorrect by its caller.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "-1.0".into()
    }
}

/// Checks bitwise agreement and exact counts of `got` against `want`;
/// returns a message naming the first difference.
fn same_outputs(want: &JobReport, got: &JobReport, what: &str) -> Option<String> {
    if want.fingerprint != got.fingerprint {
        return Some(format!("{what}: outputs differ bitwise"));
    }
    if want.counts != got.counts {
        return Some(format!(
            "{what}: exact counts differ: {:?} vs {:?}",
            want.counts, got.counts
        ));
    }
    None
}

/// Timed set-ups of one input variant.
struct Setups<'a> {
    variant: u64,
    refs: Option<&'a Path>,
    cpus: Vec<usize>,
    times: Vec<f64>,
    /// Sum of `times`.
    total: f64,
    /// Batches of back-to-back set-ups so far; a single-threaded
    /// set-up runs each batch on the next of the allowed CPUs, so that
    /// a run samples every core's contention from other tenants.
    batches: usize,
}

impl Setups<'_> {
    /// Starts a batch: pins a single-threaded set-up to the next CPU.
    fn start_batch<W: Workload>(&mut self) -> Res<()> {
        if W::SINGLE_THREADED_SETUP && self.cpus.len() > 1 {
            util::pin_to_cpus(&[self.cpus[self.batches % self.cpus.len()]])?;
        }
        self.batches += 1;
        Ok(())
    }

    /// Times one set-up and returns its input.
    fn once<W: Workload>(&mut self) -> Res<W::Input> {
        let (secs, built) = timed(|| W::setup(self.variant, self.refs));
        self.times.push(secs);
        self.total += secs;
        built
    }

    /// Times set-ups, dropping each input, while `more` holds; then
    /// restores the run's CPU set.
    fn batch<W: Workload>(&mut self, more: impl Fn(&Self) -> bool) -> Res<()> {
        if !more(self) {
            return Ok(());
        }
        self.start_batch::<W>()?;
        while more(self) {
            drop(self.once::<W>()?);
        }
        util::pin_to_cpus(&self.cpus)
    }
}

fn run<W: Workload>(args: &Args, variant: u64, refs: Option<&Path>) -> Res<Outcome> {
    let mut setups = Setups {
        variant,
        refs,
        cpus: util::allowed_cpus()?,
        times: Vec::new(),
        total: 0.0,
        batches: 0,
    };
    // The first set-up builds the input every job uses.
    setups.start_batch::<W>()?;
    let input = setups.once::<W>()?;
    util::pin_to_cpus(&setups.cpus)?;
    W::prepare(&input)?;
    if args.trace {
        run_traced::<W>(&input)
    } else {
        run_untraced::<W>(&input, args.seconds, &mut setups)
    }
}

/// Compares a job's checked values with the references; returns the
/// error and whether it is within the workload's limit.
fn reference_check<W: Workload>(input: &W::Input, report: &JobReport) -> (f64, bool) {
    let err = util::max_rel_err(&report.checked, W::reference(input));
    (err, err.is_finite() && err <= W::REL_ERR_LIMIT)
}

fn run_untraced<W: Workload>(
    input: &W::Input,
    seconds: f64,
    setups: &mut Setups<'_>,
) -> Res<Outcome> {
    let exec = measured_exec();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<JobReport> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    let cpus = util::allowed_cpus()?;
    let first_setup = setups.total;
    while walls.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let share = SETUP_SHARE * start.elapsed().as_secs_f64();
        setups.batch::<W>(|s| s.total - first_setup < share)?;
        if W::SINGLE_THREADED && cpus.len() > 1 {
            util::pin_to_cpus(&[cpus[walls.len() % cpus.len()]])?;
        }
        W::stage(input)?;
        util::release_free_memory();
        reset_peak_rss()?;
        let (wall, report) = timed(|| W::job(input, exec));
        peaks.push(peak_rss_mb()?);
        let report = report?;
        walls.push(wall);
        attempted += report.attempted;
        failed += report.failed;
        match &first {
            None => {
                let (err, ok) = reference_check::<W>(input, &report);
                eprintln!(
                    "perfbench: max relative error {err:e} (limit {:e})",
                    W::REL_ERR_LIMIT
                );
                if !ok {
                    correct = false;
                    failed += report.attempted;
                }
                first = Some(report);
            }
            Some(want) => {
                if let Some(msg) = same_outputs(want, &report, "repeated job") {
                    eprintln!("perfbench: {msg}");
                    correct = false;
                    failed += report.attempted;
                }
            }
        }
    }
    setups.batch::<W>(|s| s.times.len() < SETUP_REPEATS)?;
    eprintln!(
        "perfbench: {} jobs, wall min {:.4} median {:.4} max {:.4} s; {} set-ups, median {:.4e} s",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        setups.times.len(),
        median(&setups.times),
    );
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setups.times), "s"),
            ("peak_rss_mb", median(&peaks), "MiB"),
        ],
    })
}

fn run_traced<W: Workload>(input: &W::Input) -> Res<Outcome> {
    let exec = measured_exec();
    let mut problems = Vec::new();
    let mut layers: Layers = LAYER_METRICS.iter().map(|(n, _)| (*n, 0.0)).collect();

    // The measured configuration, twice: its outputs and exact counts
    // must repeat.
    W::stage(input)?;
    let (wall_a, base) = timed(|| W::job(input, exec));
    let base = base?;
    W::stage(input)?;
    let (wall_b, again) = timed(|| W::job(input, exec));
    problems.extend(same_outputs(&base, &again?, "repeated job"));
    let base_wall = 0.5 * (wall_a + wall_b);
    let mut walls: Vec<(Exec, f64)> = vec![(exec, base_wall)];

    for (metric, alt) in W::alternatives() {
        let alt = Exec {
            threads: alt.threads.min(exec.threads),
            shards: alt.shards.min(exec.shards),
        };
        W::stage(input)?;
        let (wall, report) = timed(|| W::job(input, alt));
        problems.extend(same_outputs(&base, &report?, metric));
        layers.insert(metric, wall / base_wall);
        walls.push((alt, wall));
    }

    // Two replays: outputs must equal the untraced job's bitwise, and
    // the replay-only counts must repeat. Timings come from the second.
    let first = W::traced(input, &mut layers)?;
    let traced = W::traced(input, &mut layers)?;
    for replay in [&first, &traced] {
        if replay.report.fingerprint != base.fingerprint {
            problems.push("traced replay: outputs differ bitwise from the untraced job".into());
        }
        for (name, value) in &replay.report.counts {
            if base.counts.iter().any(|(n, v)| n == name && v != value) {
                problems.push(format!("traced replay: count {name} differs"));
            }
        }
    }
    if first.counts != traced.counts {
        problems.push(format!(
            "replay counts do not repeat: {:?} vs {:?}",
            first.counts, traced.counts
        ));
    }
    // Exact counts of the measured job itself: what the program did,
    // not what a replay mirroring it did.
    for (name, value) in &base.counts {
        if layers.contains_key(name) {
            layers.insert(name, *value as f64);
        }
    }
    let replay_exec = W::replay_exec();
    let replay_exec = Exec {
        threads: replay_exec.threads.min(exec.threads),
        shards: replay_exec.shards.min(exec.shards),
    };
    let untraced_wall = walls
        .iter()
        .find(|(e, _)| *e == replay_exec)
        .map(|(_, w)| *w)
        .ok_or("replay configuration was not timed untraced")?;
    layers.insert(
        "trace.unattributed_s",
        traced.wall_s - traced.spans.covered(),
    );
    layers.insert("trace.overhead_frac", traced.wall_s / untraced_wall - 1.0);

    layers.insert("exec.pool_round_us", pool_round_us(exec.threads));
    let (err, ok) = reference_check::<W>(input, &base);
    if !ok {
        problems.push(format!("max relative error {err:e} exceeds the limit"));
    }
    layers.insert("check.max_rel_err", err);
    let mut failed = base.failed;
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        failed = base.attempted;
    }
    layers.insert(
        "check.failed_frac",
        failed as f64 / base.attempted.max(1) as f64,
    );
    let finite = layers.values().all(|v| v.is_finite());
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0 && finite,
        attempted: base.attempted,
        failed,
        metrics: LAYER_METRICS
            .iter()
            .map(|(name, unit)| (*name, layers[name], *unit))
            .collect(),
    })
}

/// Median time of one `WorkerPool` round of empty jobs, one per
/// worker, over batches of rounds.
fn pool_round_us(workers: usize) -> f64 {
    const ROUNDS: usize = 500;
    const BATCHES: usize = 9;
    gprs_exec::with_worker_pool(
        vec![(); workers.max(1)],
        |_, _: &mut (), job: usize| std::hint::black_box(job),
        |pool| {
            let batches: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let (secs, _) = timed(|| {
                        for _ in 0..ROUNDS {
                            let jobs = (0..pool.worker_count()).map(|w| (w, w)).collect();
                            std::hint::black_box(pool.run_on(jobs));
                        }
                    });
                    secs * 1e6 / ROUNDS as f64
                })
                .collect();
            median(&batches)
        },
    )
}

/// Writes the committed reference files: every variant of every
/// workload solved at a tight tolerance.
fn gen_refs(dir: &Path) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(util::err("creating the reference directory"))?;
    gen_refs_for::<sweep::FigureSweep>(dir, "figure_sweep")?;
    gen_refs_for::<metro::MetroTorus>(dir, "metro_torus")?;
    gen_refs_for::<campaign::CampaignJournal>(dir, "campaign_journal")?;
    gen_refs_for::<transient::ReconfigTransient>(dir, "reconfig_transient")
}

fn gen_refs_for<W: Workload>(dir: &Path, name: &str) -> Res<()> {
    use gprs_core::JsonValue;
    let mut variants = Vec::new();
    for v in 0..VARIANTS {
        let input = W::setup(v, None)?;
        let values = W::tight(&input)?;
        eprintln!(
            "perfbench: {name} variant {v}: {} reference values",
            values.len()
        );
        variants.push(JsonValue::Array(
            values.into_iter().map(JsonValue::Num).collect(),
        ));
    }
    let doc = JsonValue::Object(vec![
        ("workload".into(), JsonValue::Str(name.into())),
        ("variants".into(), JsonValue::Array(variants)),
    ]);
    std::fs::write(
        dir.join(format!("{name}.json")),
        doc.to_json_string() + "\n",
    )
    .map_err(util::err("writing a reference file"))
}

/// Loads the reference values of `variant` from `<dir>/<name>.json`.
pub fn load_refs(dir: Option<&Path>, name: &str, variant: u64) -> Res<Vec<f64>> {
    let Some(dir) = dir else {
        return Ok(Vec::new());
    };
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading references {}: {e}", path.display()))?;
    let doc = gprs_core::parse_json(&text).map_err(util::err("parsing references"))?;
    let values = doc
        .get("variants")
        .and_then(|v| v.as_array())
        .and_then(|v| v.get(variant as usize))
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{}: no variant {variant}", path.display()))?;
    values
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{}: non-numeric value", path.display()))
        })
        .collect()
}
