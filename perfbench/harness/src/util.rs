//! Small shared pieces: seeded inputs, timing, statistics, memory
//! readings, bitwise fingerprints and the span recorder of the traced
//! run.

use gprs_core::Measures;
use std::time::Instant;

/// Harness result type: every failure is a message for stderr.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the harness error type.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// SplitMix64: a tiny, well-mixed generator, so the inputs depend on
/// nothing but the seed (no external crate, no platform RNG).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_6BB5_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `f` and returns its wall time in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next reading covers only what runs after this call.
pub fn reset_peak_rss() -> Res<()> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(err("resetting peak RSS"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hands the allocator's free memory back to the kernel, so a peak-RSS
/// reading that follows starts from the live data alone, not from
/// whatever earlier jobs left cached in the allocator's arenas.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` takes a byte count by value and only
    // walks the allocator's own free lists; it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> std::os::raw::c_int;
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Res<Vec<usize>> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("reading /proc/self/status"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list line in /proc/self/status")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(err("parsing Cpus_allowed_list"))?;
        let hi: usize = hi.parse().map_err(err("parsing Cpus_allowed_list"))?;
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// Restricts the calling thread, and the threads it spawns later, to
/// `cpus`.
pub fn pin_to_cpus(cpus: &[usize]) -> Res<()> {
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if cpu >= 64 * mask.len() {
            return Err(format!("CPU {cpu} is beyond the affinity mask"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // byte length passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "pinning to CPUs {cpus:?}: {}",
                std::io::Error::last_os_error()
            ));
        }
    }
    Ok(())
}

/// Peak resident memory since the last reset, MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("reading /proc/self/status"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparseable VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Round-trips cell configurations through the scenario codec, as a
/// surface reading its inputs from a document does: the program sees
/// only the parsed document.
pub fn cells_via_codec(cells: &[gprs_core::CellConfig]) -> Res<Vec<gprs_core::CellConfig>> {
    use gprs_core::codec::{cell_from_json_value, cell_to_json_value};
    use gprs_core::JsonValue;
    let text = JsonValue::Array(cells.iter().map(cell_to_json_value).collect()).to_json_string();
    let doc = gprs_core::parse_json(&text).map_err(err("parsing the cell document"))?;
    doc.as_array()
        .ok_or("cell document is not an array")?
        .iter()
        .map(|v| cell_from_json_value(v, "cells").map_err(err("decoding a cell")))
        .collect()
}

/// Builds the model of every cell once: validates the inputs and
/// enumerates each chain's state space before the first job.
pub fn build_models(cells: &[gprs_core::CellConfig]) -> Res<Vec<gprs_core::GprsModel>> {
    cells
        .iter()
        .map(|c| gprs_core::GprsModel::new(c.clone()).map_err(err("building a cell model")))
        .collect()
}

/// Every field of a [`Measures`] record as raw bits, for bitwise
/// comparisons between two runs of the same computation.
pub fn measures_bits(m: &Measures) -> [u64; 16] {
    [
        m.call_arrival_rate.to_bits(),
        m.carried_data_traffic.to_bits(),
        m.mean_queue_length.to_bits(),
        m.offered_packet_rate.to_bits(),
        m.accepted_packet_rate.to_bits(),
        m.data_throughput.to_bits(),
        m.packet_loss_probability.to_bits(),
        m.queueing_delay.to_bits(),
        m.throughput_per_user_pkts.to_bits(),
        m.throughput_per_user_kbps.to_bits(),
        m.carried_voice_traffic.to_bits(),
        m.avg_gprs_sessions.to_bits(),
        m.gsm_blocking_probability.to_bits(),
        m.gprs_blocking_probability.to_bits(),
        m.gsm_handover_rate.to_bits(),
        m.gprs_handover_rate.to_bits(),
    ]
}

/// The measures checked against the committed references. They stay
/// well away from zero on every workload, so a relative error is
/// meaningful (loss and blocking probabilities can be ~1e-12 at light
/// load and are left out for that reason).
pub fn checked_measures(m: &Measures) -> [f64; 5] {
    [
        m.carried_data_traffic,
        m.mean_queue_length,
        m.throughput_per_user_kbps,
        m.carried_voice_traffic,
        m.avg_gprs_sessions,
    ]
}

/// Largest relative error of `got` against `want`, element by element.
/// A non-finite value on either side counts as an infinite error, so a
/// NaN output fails the check rather than vanishing in the maximum.
pub fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let e = if g == w { 0.0 } else { (g - w).abs() / w.abs() };
            if g.is_finite() && w.is_finite() && !e.is_nan() {
                e
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// Write system calls this process has made so far (`syscw` in
/// `/proc/self/io`, summed over all its threads).
pub fn write_syscalls() -> Res<u64> {
    let io = std::fs::read_to_string("/proc/self/io").map_err(err("reading /proc/self/io"))?;
    io.lines()
        .find_map(|l| l.strip_prefix("syscw:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no syscw line in /proc/self/io".into())
}

/// Named, non-overlapping spans recorded by the traced run around each
/// call into a layer. Spans are kept in memory; only their per-name
/// totals leave the process.
#[derive(Debug, Default)]
pub struct Spans {
    totals: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Times `f` under `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (secs, out) = timed(f);
        self.add(name, secs);
        out
    }

    /// Adds `secs` to the total of `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.totals.push((name, secs)),
        }
    }

    /// Total seconds recorded under `name` (0 if never entered).
    pub fn total(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, t)| *t)
    }

    /// Seconds covered by all spans together.
    pub fn covered(&self) -> f64 {
        self.totals.iter().map(|(_, t)| t).sum()
    }
}
