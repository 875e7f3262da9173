//! Order statistics, process CPU-time and memory probes, and report
//! digests.

/// The `p`-quantile of `values` by linear interpolation between closest
/// ranks (the "inclusive" method of Python's `statistics.quantiles`).
/// `values` need not be sorted; an empty slice yields 0.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank percentile of integer samples, the rank rule
/// `papi_core::LatencySummary` uses for simulated latencies.
pub fn rank_percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let idx = (p * values.len() as f64).ceil() as usize;
    values[idx.clamp(1, values.len()) - 1]
}

/// Least-squares slope of `y` over `x`; 0 with fewer than two distinct
/// `x` values.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// A `kB` field of `/proc/self/status` (e.g. `VmRSS`, `VmHWM`), in MiB.
/// `None` where the file or field is unavailable.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds the whole process has used: user plus system time of every
/// thread, including threads that have exited. Unlike wall-clock time it
/// leaves out time the hypervisor steals from a virtual machine's CPUs.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as Linux's 64-bit
    // `struct timespec` (two 64-bit fields, checked at compile time
    // below), and the clock id is the kernel's constant for this clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("simbench reads /proc and the 64-bit Linux timespec layout");

/// FNV-1a over a report's JSON, fed one piece at a time so that no
/// piece's serialization tree grows large. Every piece ends with `0xFF`,
/// a byte UTF-8 never contains, so two piece sequences digest alike only
/// when they serialize to the same bytes (up to 64-bit hash collisions).
#[derive(Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds `piece`'s JSON serialization.
    pub fn json<T: serde::Serialize + ?Sized>(&mut self, piece: &T) {
        let json = serde_json::to_string(piece).expect("simulator reports serialize");
        self.write(json.as_bytes());
        self.write(&[0xFF]);
    }

    /// Feeds a slice's length, then each element.
    pub fn items<T: serde::Serialize>(&mut self, items: &[T]) {
        self.json(&(items.len() as u64));
        for item in items {
            self.json(item);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rank_percentile_matches_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_percentile(&mut v, 0.99), 99);
        assert_eq!(rank_percentile(&mut v, 0.5), 50);
    }

    #[test]
    fn digest_separates_pieces() {
        let digest = |pieces: &[&str]| {
            let mut d = Digest::new();
            pieces.iter().for_each(|p| d.json(*p));
            d.finish()
        };
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        assert!((slope(&pts) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&pts[..1]), 0.0);
    }
}
