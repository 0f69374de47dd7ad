//! `campaign_journal`: a 2000-item demo campaign resumed from a
//! journal that already holds its first half. Journal writes (one
//! fsync per batch) sit beside journal reads (recovery); the codec and
//! the supervised pool carry the rest, and the solves are tiny.

use crate::util::{checked_measures, err, write_syscalls, Res, Rng, Spans};
use crate::{load_refs, Exec, JobReport, Layers, Traced, Workload};
use gprs_campaign::journal::entry_to_json_value;
use gprs_campaign::{
    demo_spec, load_journal, run_campaign, CampaignReport, CampaignSpec, ItemResult, ItemStatus,
    Journal, RunnerConfig,
};
use gprs_core::{SolveRung, SolvedCluster, TemplateRegistry};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

const ITEMS: usize = 2000;
/// Items journaled during set-up, before the timed resume.
const PRE_JOURNALED: usize = ITEMS / 2;
const BATCH: usize = 8;
/// Every `SAMPLE`-th item is checked against the references.
const SAMPLE: usize = 50;

pub struct Input {
    /// The campaign document, as the seed generated it.
    text: String,
    spec: CampaignSpec,
    /// Journal bytes of the first half, restored before every job.
    pre_journal: Vec<u8>,
    dir: PathBuf,
    /// Result entries of an uninterrupted in-memory run: every resumed
    /// job must reproduce them bitwise.
    uninterrupted: OnceLock<Vec<String>>,
    refs: Vec<f64>,
}

impl Drop for Input {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Input {
    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// Puts the pre-journal back in place: the state a killed first
    /// run leaves behind.
    fn restore(&self) -> Res<()> {
        std::fs::write(self.journal_path(), &self.pre_journal).map_err(err("restoring the journal"))
    }
}

pub struct CampaignJournal;

/// Numbers the work directories of successive set-ups in one process.
static SETUPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn runner(exec: Exec) -> RunnerConfig {
    RunnerConfig {
        threads: exec.threads,
        batch_size: BATCH,
        ..RunnerConfig::default()
    }
}

/// The seeded campaign document: the demo campaign with every item's
/// load scaled by a seeded factor in [0.9, 1.1).
fn spec_text(variant: u64) -> Res<String> {
    let mut rng = Rng::new(variant);
    let mut spec = demo_spec(ITEMS);
    for item in &mut spec.items {
        let scale = 0.9 + 0.2 * rng.unit();
        item.scenario = item
            .scenario
            .clone()
            .with_load_scale(scale)
            .map_err(err("scaling a campaign item"))?;
    }
    Ok(spec.to_json())
}

fn entries(results: &[ItemResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| entry_to_json_value(r).to_json_string())
        .collect()
}

fn pack(bytes: &[u8], out: &mut Vec<u64>) {
    out.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(u64::from_le_bytes(word));
    }
}

/// Reduces a resumed run to its checks: result entries and journal
/// bytes form the fingerprint; the outcome counters must repeat.
/// `appends` is the number of write system calls `run_campaign` made:
/// the journal's only writes, one per batch, each followed by its
/// fsync. The traced replay batches on its own and passes `None`.
fn report(input: &Input, rep: &CampaignReport, journal: &[u8], appends: Option<u64>) -> JobReport {
    let mut r = JobReport::default();
    let lines = entries(&rep.results);
    for line in &lines {
        pack(line.as_bytes(), &mut r.fingerprint);
    }
    pack(journal, &mut r.fingerprint);
    for res in rep.results.iter().step_by(SAMPLE) {
        match &res.measures {
            Some(m) => r.checked.extend(checked_measures(m)),
            None => r.checked.push(f64::NAN),
        }
    }
    let fresh = rep.results.len() - rep.reused_from_journal;
    r.counts = vec![
        ("campaign.items_reused", rep.reused_from_journal as u64),
        ("campaign.retries", rep.retries as u64),
        ("campaign.degraded", rep.degraded() as u64),
        ("core.template.symbolic_setups", rep.template_setups as u64),
        (
            "campaign.journal.bytes",
            (journal.len() - input.pre_journal.len()) as u64,
        ),
    ];
    if let Some(appends) = appends {
        r.counts.push(("campaign.journal.fsyncs", appends));
    }
    r.attempted = fresh as u64;
    r.failed = (rep.failed() + rep.degraded()) as u64;
    if let Some(want) = input.uninterrupted.get() {
        if *want != lines {
            eprintln!("perfbench: resumed campaign differs from the uninterrupted run");
            r.failed = r.attempted;
        }
    }
    r
}

/// Worst fallback rung over a solved cluster's cells, exactly as the
/// campaign runner summarises an item.
fn health_summary(solved: &SolvedCluster) -> (SolveRung, u8) {
    let depth = |rung: SolveRung| match rung {
        SolveRung::Primary => 0u8,
        SolveRung::Surrogate => 1,
        SolveRung::ColdRestart => 2,
        SolveRung::AlternateIterative => 3,
        SolveRung::DirectGth => 4,
    };
    let mut worst = SolveRung::Primary;
    let mut failed = 0u8;
    for cell in solved.cells() {
        if depth(cell.health.rung) > depth(worst) {
            worst = cell.health.rung;
        }
        failed = failed.max(cell.health.failed_rungs);
    }
    (worst, failed)
}

impl Workload for CampaignJournal {
    type Input = Input;
    const REL_ERR_LIMIT: f64 = 1e-4;
    // The pre-journal runs on the supervised pool.
    const SINGLE_THREADED_SETUP: bool = false;

    fn setup(variant: u64, refs: Option<&Path>) -> Res<Input> {
        let text = spec_text(variant)?;
        let spec = CampaignSpec::from_json(&text).map_err(err("parsing the campaign"))?;
        let dir = std::env::current_dir()
            .map_err(err("working directory"))?
            .join(".bench_work")
            .join(format!(
                "campaign-{}-{}",
                std::process::id(),
                SETUPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("creating the work directory"))?;
        let mut first_half = spec.clone();
        first_half.items.truncate(PRE_JOURNALED);
        let pre_path = dir.join("pre.jsonl");
        let pre = run_campaign(
            &first_half,
            Some(&pre_path),
            &runner(crate::measured_exec()),
        )
        .map_err(err("pre-journaling"))?;
        if pre.failed() + pre.degraded() > 0 {
            return Err("pre-journal run had failed or degraded items".into());
        }
        let pre_journal = std::fs::read(&pre_path).map_err(err("reading the pre-journal"))?;
        Ok(Input {
            text,
            spec,
            pre_journal,
            dir,
            uninterrupted: OnceLock::new(),
            refs: load_refs(refs, "campaign_journal", variant)?,
        })
    }

    fn reference(input: &Input) -> &[f64] {
        &input.refs
    }

    fn prepare(input: &Input) -> Res<()> {
        let full = run_campaign(&input.spec, None, &runner(crate::measured_exec()))
            .map_err(err("uninterrupted campaign"))?;
        let _ = input.uninterrupted.set(entries(&full.results));
        input.restore()
    }

    fn stage(input: &Input) -> Res<()> {
        input.restore()
    }

    fn job(input: &Input, exec: Exec) -> Res<JobReport> {
        let path = input.journal_path();
        let writes_before = write_syscalls()?;
        let rep =
            run_campaign(&input.spec, Some(&path), &runner(exec)).map_err(err("campaign run"))?;
        let appends = write_syscalls()? - writes_before;
        std::hint::black_box(rep.to_json_value().to_json_string());
        let journal = std::fs::read(&path).map_err(err("reading the journal"))?;
        Ok(report(input, &rep, &journal, Some(appends)))
    }

    fn tight(input: &Input) -> Res<Vec<f64>> {
        let mut values = Vec::new();
        for item in input.spec.items.iter().step_by(SAMPLE) {
            let model = item.scenario.to_cluster().map_err(err("reference item"))?;
            let opts = input
                .spec
                .options
                .clone()
                .with_threads(1)
                .with_shards(1)
                .with_tolerance(1e-14)
                .with_solve(gprs_ctmc::SolveOptions::default().with_tolerance(1e-14));
            let solved = model.solve(&opts).map_err(err("reference item solve"))?;
            if solved.degraded() {
                return Err("reference item solve degraded".into());
            }
            values.extend(checked_measures(&solved.mid().measures));
        }
        Ok(values)
    }

    fn alternatives() -> Vec<(&'static str, Exec)> {
        vec![(
            "exec.speedup_1to2",
            Exec {
                threads: 1,
                shards: 2,
            },
        )]
    }

    fn replay_exec() -> Exec {
        Exec {
            threads: 1,
            shards: 2,
        }
    }

    /// The resume replayed call by call on one thread: journal
    /// recovery, one cluster solve per pending item, one append (and
    /// fsync) per batch, then the report.
    fn traced(input: &Input, layers: &mut Layers) -> Res<Traced> {
        input.restore()?;
        let path = input.journal_path();
        let spec = &input.spec;
        let mut spans = Spans::default();
        let start = Instant::now();
        let recovery = spans
            .span("campaign.journal.recover_s", || load_journal(&path))
            .map_err(err("journal recovery"))?;
        let mut dropped = recovery.dropped_lines;
        let mut results: Vec<Option<ItemResult>> = vec![None; spec.items.len()];
        for entry in recovery.entries {
            let index = entry.index;
            match spec.items.get(index) {
                Some(item) if item.id == entry.id && results[index].is_none() => {
                    results[index] = Some(entry);
                }
                _ => dropped += 1,
            }
        }
        let reused = results.iter().filter(|r| r.is_some()).count();
        let pending: Vec<usize> = (0..spec.items.len())
            .filter(|&i| results[i].is_none())
            .collect();
        let registry = TemplateRegistry::new();
        let mut journal = spans
            .span("campaign.journal.append_s", || Journal::open_append(&path))
            .map_err(err("opening the journal"))?;
        let mut opts = spec.options.clone();
        opts.threads = opts.threads.max(1);
        opts.shards = opts.shards.max(1);
        let mut append_ms = Vec::new();
        let (mut sweeps, mut rungs, mut outer, mut cell_solves) = (0u64, 0u64, 0u64, 0u64);
        for batch in pending.chunks(BATCH) {
            let mut fresh = Vec::with_capacity(batch.len());
            for &index in batch {
                let item = &spec.items[index];
                let solved = spans
                    .span("campaign.item_solve_s", || {
                        item.scenario
                            .to_cluster()
                            .and_then(|model| model.solve_with_registry(&opts, &registry))
                    })
                    .map_err(err("replayed item"))?;
                for cell in solved.cells() {
                    sweeps += cell.sweeps as u64;
                    rungs += u64::from(cell.health.failed_rungs);
                }
                outer += solved.iterations() as u64;
                cell_solves += (solved.iterations() * solved.cells().len()) as u64;
                let (rung, failed_rungs) = health_summary(&solved);
                fresh.push(ItemResult {
                    index,
                    id: item.id.clone(),
                    status: ItemStatus::Solved,
                    attempts: 1,
                    measures: Some(solved.mid().measures),
                    rung,
                    failed_rungs,
                    surrogate_solves: solved.surrogate_solves(),
                    failure: None,
                });
            }
            let (secs, appended) = crate::util::timed(|| journal.append_batch(&fresh));
            appended.map_err(err("appending to the journal"))?;
            spans.add("campaign.journal.append_s", secs);
            append_ms.push(secs * 1e3);
            for r in fresh {
                let index = r.index;
                results[index] = Some(r);
            }
        }
        let results: Vec<ItemResult> = results
            .into_iter()
            .map(|r| r.ok_or("an item was neither journaled nor solved"))
            .collect::<Result<_, _>>()?;
        let retries = results.iter().map(|r| r.attempts.saturating_sub(1)).sum();
        let rep = CampaignReport {
            name: spec.name.clone(),
            results,
            reused_from_journal: reused,
            dropped_journal_lines: dropped,
            retries,
            template_setups: registry.setups(),
            template_evictions: registry.evictions(),
            elapsed: start.elapsed(),
        };
        spans.span("campaign.report.emit_s", || {
            std::hint::black_box(rep.to_json_value().to_json_string())
        });
        let wall_s = start.elapsed().as_secs_f64();
        let journal_bytes = std::fs::read(&path).map_err(err("reading the journal"))?;
        let report = report(input, &rep, &journal_bytes, None);
        for name in [
            "campaign.journal.recover_s",
            "campaign.journal.append_s",
            "campaign.item_solve_s",
            "campaign.report.emit_s",
        ] {
            layers.insert(name, spans.total(name));
        }
        layers.insert(
            "campaign.journal.append_ms_p50",
            crate::util::quantile(&append_ms, 0.5),
        );
        layers.insert(
            "campaign.journal.append_ms_p90",
            crate::util::quantile(&append_ms, 0.9),
        );
        layers.insert("core.cluster.outer_iterations", outer as f64);
        // Parsing is set-up work, timed apart from the replayed job.
        let (parse_s, parsed) = crate::util::timed(|| CampaignSpec::from_json(&input.text));
        parsed.map_err(err("parsing the campaign"))?;
        layers.insert("campaign.spec.parse_s", parse_s);
        layers.insert("core.cluster.cell_solves", cell_solves as f64);
        layers.insert("ctmc.sweeps", sweeps as f64);
        layers.insert("ctmc.fallback_rungs", rungs as f64);
        Ok(Traced {
            wall_s,
            spans,
            report,
            counts: vec![
                ("core.cluster.outer_iterations", outer),
                ("core.cluster.cell_solves", cell_solves),
                ("ctmc.sweeps", sweeps),
                ("ctmc.fallback_rungs", rungs),
            ],
        })
    }
}
