//! The benchmark's own instruments: latency histogram, seeded generator,
//! op-stream hash and the `/proc` readers. Nothing here calls the program.

use std::time::Instant;

/// xorshift64* — the bench-side generator behind every object/target stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state; zero is the one forbidden state.
        Rng((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03).max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for the `n` used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over the words of an op stream: same seed ⇒ same hash.
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Sub-buckets per power of two: bucket width ≤ value / 128 (0.78 %).
const SUB: usize = 128;
const SUB_BITS: u32 = 7;
/// Below this many samples quantiles come from the exact values.
const EXACT_LIMIT: usize = 4096;
/// A latency above this is counted as a harness stall (a descheduled driver
/// or a noisy neighbour rather than the program).
const STALL_NS: u64 = 10_000_000;

/// Log-linear histogram of nanosecond latencies over the whole `u64` range
/// (no overflow bucket). Values below 128 ns are exact; above, a bucket spans
/// at most 1/128 of its lower edge and quantiles interpolate by rank inside
/// the bucket, so the relative error stays under 1 %. The first
/// [`EXACT_LIMIT`] samples are also kept verbatim, and a histogram that never
/// grew past them (the five cells of `fig5_cells`, a probe's dozen
/// migrations) answers from the exact values.
pub struct Histogram {
    /// `u32`, because a window keeps one histogram per slice and the pages
    /// they touch are in `peak_rss_mb`; 4 × 10⁹ samples per bucket is enough.
    counts: Vec<u32>,
    exact: Vec<u64>,
    n: u64,
    stalls: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// The half-open value range `[lo, hi)` of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, b as f64 + 1.0);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((SUB + b % SUB) as u128) << shift;
    (lo as f64, (lo + (1u128 << shift)) as f64)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            exact: Vec::new(),
            n: 0,
            stalls: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        if (self.n as usize) < EXACT_LIMIT {
            self.exact.push(ns);
        } else if !self.exact.is_empty() {
            // Past the limit the buckets answer; give the memory back.
            self.exact = Vec::new();
        }
        self.n += 1;
        self.stalls += (ns > STALL_NS) as u64;
    }

    pub fn record_since(&mut self, start: Instant) {
        self.record(start.elapsed().as_nanos() as u64);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        if self.n as usize <= EXACT_LIMIT {
            self.exact.extend_from_slice(&other.exact);
        } else {
            self.exact = Vec::new();
        }
        self.stalls += other.stalls;
    }

    /// Nearest-rank quantile in nanoseconds (`q` in `0..=1`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if self.n as usize == self.exact.len() {
            let mut sorted = self.exact.clone();
            sorted.sort_unstable();
            return sorted[rank as usize - 1] as f64;
        }
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if before + c >= rank {
                let (lo, hi) = bucket_range(b);
                return lo + (hi - lo) * (rank - before) as f64 / c as f64;
            }
            before += c;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.n)
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }

    /// Mean, in nanoseconds, of the samples from rank `⌈lo·n⌉ + 1` to rank
    /// `⌈hi·n⌉` in ascending order (a bucket's samples count at its middle);
    /// 0 when that range is empty.
    pub fn mean_between(&self, lo: f64, hi: f64) -> f64 {
        let first = (lo * self.n as f64).ceil() as u64;
        let last = ((hi * self.n as f64).ceil() as u64).min(self.n);
        if first >= last {
            return 0.0;
        }
        if self.n as usize == self.exact.len() {
            let mut sorted = self.exact.clone();
            sorted.sort_unstable();
            let taken = &sorted[first as usize..last as usize];
            return taken.iter().sum::<u64>() as f64 / taken.len() as f64;
        }
        let (mut before, mut sum) = (0u64, 0.0);
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            let taken = (before + c).min(last).saturating_sub(before.max(first));
            if taken > 0 {
                let (lo, hi) = bucket_range(b);
                sum += taken as f64 * (lo + hi) / 2.0;
            }
            before += c;
            if before >= last {
                break;
            }
        }
        sum / (last - first) as f64
    }
}

/// Length of one slice of a timed window, in seconds.
pub const SLICE_SECONDS: f64 = 0.25;
/// The share of a window's slices, the quietest ones, that the end-to-end
/// metrics are taken over.
pub const QUIET_SHARE: f64 = 0.1;

/// The latencies of a timed window, cut into slices of [`SLICE_SECONDS`] by
/// the time each operation completed, with the process CPU time at each
/// slice's end; the last slice runs on to the end of the drain.
///
/// The machines this runs on are disturbed from outside for seconds to
/// minutes at a time, and a disturbance only ever slows the program: one
/// binary reads 64,000 calls/s with a p99 of 40 µs in a quiet second and
/// 45,000 with 80 µs in a disturbed one. So the end-to-end metrics are taken
/// over the **quietest** [`QUIET_SHARE`] of the slices, those with the highest
/// operation rate ([`Sliced::quiet`]); the values over the whole window are
/// printed beside them, and `baseline/BENCH_13.json` holds the run-to-run
/// spread of both.
pub struct Sliced {
    start: Instant,
    slice_ns: u64,
    slices: Vec<Histogram>,
    /// `cpu_seconds()` at the window's start, then at the end of each slice;
    /// empty on a driver that does not keep the clock (one per run does).
    cpu_marks: Vec<f64>,
    /// The slice operations are completing in.
    open: usize,
    /// Seconds from the window's start to the end of the drain.
    closed_s: f64,
}

/// The four end-to-end metrics a window gives, and the two quantiles printed
/// beside them.
pub struct WindowMetrics {
    pub ops_per_s: f64,
    pub p50_us: f64,
    /// Mean latency of the slower half of the operations, the slowest 1 %
    /// left out: ranks `n/2 + 1 ..= 0.99 n`.
    pub slow_half_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_op: f64,
}

impl WindowMetrics {
    /// From `latency`, the successful operations of `seconds` of wall clock
    /// that took `cpu_s` of process CPU time.
    pub fn of(latency: &Histogram, seconds: f64, cpu_s: f64) -> WindowMetrics {
        let ops = latency.count() as f64;
        WindowMetrics {
            ops_per_s: ops / seconds,
            p50_us: latency.quantile_us(0.5),
            slow_half_us: latency.mean_between(0.5, 0.99) / 1e3,
            p90_us: latency.quantile_us(0.9),
            p99_us: latency.quantile_us(0.99),
            cpu_us_per_op: cpu_s * 1e6 / ops.max(1.0),
        }
    }
}

impl Sliced {
    /// A recorder for the window of `seconds` that opened at `start`.
    /// `cpu_at_start` makes this the recorder that keeps the CPU clock.
    pub fn new(start: Instant, seconds: f64, cpu_at_start: Option<f64>) -> Self {
        let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
        Sliced {
            start,
            slice_ns: ((seconds * 1e9) as u64 / slices as u64).max(1),
            slices: (0..slices).map(|_| Histogram::new()).collect(),
            cpu_marks: cpu_at_start.into_iter().collect(),
            open: 0,
            closed_s: seconds,
        }
    }

    /// Records an operation that took `ns` and completed at `done`; the last
    /// slice takes whatever completes after the window's end.
    #[inline]
    pub fn record(&mut self, done: Instant, ns: u64) {
        let idx = ((done - self.start).as_nanos() as u64 / self.slice_ns) as usize;
        self.advance_to(idx.min(self.slices.len() - 1));
        self.slices[self.open].record(ns);
    }

    /// Closes every slice before `idx`, stamping the CPU clock on each.
    fn advance_to(&mut self, idx: usize) {
        if idx > self.open {
            if !self.cpu_marks.is_empty() {
                let now = cpu_seconds();
                self.cpu_marks.resize(idx + 1, now);
            }
            self.open = idx;
        }
    }

    /// Closes the last slice: the drain has ended.
    pub fn close(&mut self) {
        self.closed_s = self.start.elapsed().as_secs_f64();
        self.advance_to(self.slices.len());
        self.open = self.slices.len() - 1;
    }

    /// Folds in another driver's latencies, slice by slice.
    pub fn merge(&mut self, other: &Sliced) {
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge(b);
        }
    }

    /// Every slice in one histogram.
    pub fn whole(&self) -> Histogram {
        let mut all = Histogram::new();
        self.slices.iter().for_each(|s| all.merge(s));
        all
    }

    /// Wall seconds of slice `i`; the last one includes the drain.
    fn seconds_of(&self, i: usize) -> f64 {
        let slice_s = self.slice_ns as f64 / 1e9;
        if i + 1 < self.slices.len() {
            slice_s
        } else {
            (self.closed_s - slice_s * i as f64).max(slice_s)
        }
    }

    /// The quietest [`QUIET_SHARE`] of the slices, those with the highest
    /// operation rate, in the window's order.
    pub fn quiet_slices(&self) -> Vec<usize> {
        let n = self.slices.len();
        let rate = |i: usize| self.slices[i].count() as f64 / self.seconds_of(i);
        let mut by_rate: Vec<usize> = (0..n).collect();
        by_rate.sort_by(|&a, &b| rate(b).total_cmp(&rate(a)));
        by_rate.truncate(((n as f64 * QUIET_SHARE).ceil() as usize).max(1));
        by_rate.sort_unstable();
        by_rate
    }

    /// The metrics over the quietest slices, taken together.
    pub fn quiet(&self) -> WindowMetrics {
        assert_eq!(
            self.cpu_marks.len(),
            self.slices.len() + 1,
            "the window was closed"
        );
        let mut latency = Histogram::new();
        let (mut seconds, mut cpu_s) = (0.0, 0.0);
        for i in self.quiet_slices() {
            latency.merge(&self.slices[i]);
            seconds += self.seconds_of(i);
            cpu_s += self.cpu_marks[i + 1] - self.cpu_marks[i];
        }
        WindowMetrics::of(&latency, seconds, cpu_s)
    }
}

/// `utime + stime` of the process in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second of `/proc/self/stat` times: `USER_HZ`, which Linux
/// fixes at 100 on every architecture it exports these files on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, every thread, exited ones too) the process
/// has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_S
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parse VmHWM") as f64 / 1024.0
}

/// The 1-minute load average, so a noisy neighbour shows in the record.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

extern "C" {
    // glibc's wrappers of the Linux system calls; `std` already links libc.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread started from it afterwards,
/// to one CPU: the highest it is allowed on, leaving CPU 0 to the rest of the
/// machine. Returns that CPU. On the 2-vCPU VMs this runs on, a wake-up that
/// crosses CPUs costs tens of microseconds and comes and goes between runs of
/// one binary (sync-call p50 15 µs or 52 µs); on one CPU the same call reads
/// the same.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the
    // `size_of_val(&mask)` bytes passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let word = mask
        .iter()
        .rposition(|&w| w != 0)
        .ok_or_else(|| std::io::Error::other("the affinity mask is empty"))?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the `size_of_val(&one)` bytes
    // passed, read only by the call; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of a sorted vector: the oracle.
    fn oracle(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check_against_oracle(samples: &[u64]) {
        let mut h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.quantile(q), oracle(&sorted, q));
            assert!(
                (got - want).abs() <= want * 0.01 + 1.0,
                "q={q}: histogram {got} vs oracle {want}"
            );
        }
    }

    #[test]
    fn quantiles_match_sorted_vector_on_seeded_samples() {
        let mut rng = Rng::new(42);
        // Log-uniform over 100 ns .. 100 ms, well past the exact limit.
        let samples: Vec<u64> = (0..50_000)
            .map(|_| (100.0 * 10f64.powf(rng.next() as f64 / u64::MAX as f64 * 6.0)) as u64)
            .collect();
        check_against_oracle(&samples);
    }

    #[test]
    fn quantiles_match_on_a_two_mode_sample() {
        let mut rng = Rng::new(7);
        // 90 % near 34 µs, 10 % near 36 ms: the shape PR 11's lifecycle had.
        let samples: Vec<u64> = (0..20_000)
            .map(|i| {
                let base = if i % 10 == 0 { 36_000_000 } else { 34_000 };
                base + rng.below(base as usize / 20) as u64
            })
            .collect();
        check_against_oracle(&samples);
    }

    #[test]
    fn mean_between_matches_sorted_vector() {
        let mut rng = Rng::new(11);
        // Nine in ten near 15 µs, one in ten near 20 µs: a step under the p90.
        let samples: Vec<u64> = (0..30_000)
            .map(|i| if i % 10 == 0 { 20_000 } else { 15_000 } + rng.below(2_000) as u64)
            .collect();
        let mut h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for (lo, hi) in [(0.5, 0.99), (0.0, 1.0), (0.9, 0.99)] {
            let (first, last) = ((lo * 30_000.0) as usize, (hi * 30_000.0) as usize);
            let want = sorted[first..last].iter().sum::<u64>() as f64 / (last - first) as f64;
            let got = h.mean_between(lo, hi);
            assert!(
                (got - want).abs() <= want * 0.005,
                "{lo}..{hi}: {got} vs {want}"
            );
        }
        assert_eq!(h.mean_between(0.5, 0.5), 0.0);
        // Five samples, as `fig5_cells` has: the two slowest.
        let mut few = Histogram::new();
        [50, 10, 40, 20, 30].iter().for_each(|&s| few.record(s));
        assert_eq!(few.mean_between(0.5, 0.99), 45.0);
        assert_eq!(Histogram::new().mean_between(0.5, 0.99), 0.0);
    }

    #[test]
    fn small_samples_are_exact() {
        let samples = [1_000_000_007u64, 3, 999_999_999, 1_500_000_001, 42];
        let mut h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        assert_eq!(h.quantile(0.5), 999_999_999.0);
        assert_eq!(h.quantile(1.0), 1_500_000_001.0);
        assert_eq!(h.quantile(0.0), 3.0);
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0.0;
        for b in 0..bucket_of(u64::MAX) + 1 {
            let (lo, hi) = bucket_range(b);
            assert_eq!(lo, expected_lo, "bucket {b}");
            assert!(hi - lo <= (lo / 128.0).max(1.0));
            expected_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), Histogram::new().counts.len() - 1);
        for v in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 8191,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < hi || v == u64::MAX, "{v}");
        }
    }

    #[test]
    fn merge_adds_counts_and_stalls() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        (0..5000u64).for_each(|i| a.record(1000 + i));
        (0..5000u64).for_each(|i| b.record(20_000_000 + i));
        a.merge(&b);
        assert_eq!(a.count(), 10_000);
        assert_eq!(a.stalls(), 5000);
        assert!(a.quantile(0.25) < 10_000.0 && a.quantile(0.75) > 10_000_000.0);
    }

    #[test]
    fn sliced_window_reports_its_quietest_slices() {
        let start = Instant::now();
        let mut w = Sliced::new(start, 10.0, Some(0.0));
        let n = w.slices.len();
        assert_eq!(n, 40);
        // 100 ops of 1 µs in each slice of a quiet quarter of the window, 50
        // ops of 1 ms (a disturbed machine) in every other slice.
        for slice in 0..n as u64 {
            let at = start + std::time::Duration::from_millis(slice * 250 + 100);
            if (10..20).contains(&slice) {
                (0..100).for_each(|_| w.record(at, 1_000));
            } else {
                (0..50).for_each(|_| w.record(at, 1_000_000));
            }
        }
        // An operation completing after the window's end lands in the last slice.
        w.record(start + std::time::Duration::from_secs(11), 1_000_000);
        w.closed_s = 11.5;
        w.advance_to(n);
        let m = w.quiet();
        assert_eq!(m.ops_per_s, 400.0); // 4 of the 10 quiet slices
        assert_eq!(m.p50_us, 1.0);
        assert_eq!(m.p99_us, 1.0);
        assert_eq!(w.whole().count(), 10 * 100 + 30 * 50 + 1);
        assert_eq!(w.cpu_marks.len(), n + 1);
        assert_eq!(w.seconds_of(0), 0.25);
        assert_eq!(w.seconds_of(n - 1), 11.5 - 9.75);
        assert_eq!(w.quiet_slices(), [10, 11, 12, 13]);
    }

    #[test]
    fn stat_parser_handles_spaces_and_parens_in_the_command() {
        let stat = "4242 (jsym perf) (x)) S 1 4242 4242 0 -1 4194560 1043 0 0 0 \
                    731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib() {
        let status =
            "Name:\tjsym-perf\nVmPeak:\t  500000 kB\nVmHWM:\t  139836 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(139_836));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(2000), draw(2000));
        assert_ne!(draw(2000), draw(2001));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
