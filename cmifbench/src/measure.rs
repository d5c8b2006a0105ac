//! Clocks and statistics: wall time per op, process CPU time, peak resident
//! memory, percentiles.

use std::time::{Duration, Instant};

/// CPU time (user + system, all threads) this process has used so far.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, matching the C layout), and CLOCK_PROCESS_CPUTIME_ID is
    // a clock every Linux kernel provides; the call only writes `*tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of the values, interpolating linearly
/// between order statistics. Zero for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of the values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Op-level accounting of one timed phase: per-op latency, and the wall and
/// CPU time of the op sequence (checks between ops are not counted).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency of every op that completed, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time spent inside ops (and inside timed maintenance, such as a
    /// repair pass after a host loss).
    pub busy: Duration,
    /// Process CPU time spent over the same windows.
    pub cpu: Duration,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
}

impl Recorder {
    /// Runs one op, timing it. An `Err` counts as a failed op and records no
    /// latency.
    pub fn op<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        let (result, wall) = self.window(f);
        match &result {
            Ok(_) => self.latencies_ms.push(ms(wall)),
            Err(_) => self.failed += 1,
        }
        result
    }

    /// Runs timed work that belongs to the op sequence but is not an op of
    /// its own (it counts towards throughput and CPU, not latency).
    pub fn maintenance<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.window(f).0
    }

    fn window<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration) {
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        self.cpu += process_cpu().saturating_sub(cpu0);
        self.busy += wall;
        (out, wall)
    }

    /// Turns the last op, which returned but whose output failed a check,
    /// into a failed op: its latency is dropped, its time stays counted.
    pub fn reject_last(&mut self) {
        if self.latencies_ms.pop().is_some() {
            self.failed += 1;
        }
    }

    /// Counts `n` ops that could not be attempted because an earlier op of
    /// their sequence failed, as attempted and failed.
    pub fn skip(&mut self, n: usize) {
        self.attempted += n as u64;
        self.failed += n as u64;
    }

    /// Ops completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert!((quantile(&values, 0.9) - 4.6).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_clocks_advance() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn recorder_counts_failures_without_latency() {
        let mut rec = Recorder::default();
        let ok: Result<u8, ()> = rec.op(|| Ok(1));
        assert!(ok.is_ok());
        let err: Result<u8, ()> = rec.op(|| Err(()));
        assert!(err.is_err());
        assert_eq!(
            (rec.attempted, rec.failed, rec.latencies_ms.len()),
            (2, 1, 1)
        );
        rec.reject_last();
        assert_eq!(
            (rec.attempted, rec.failed, rec.latencies_ms.len()),
            (2, 2, 0)
        );
    }
}
