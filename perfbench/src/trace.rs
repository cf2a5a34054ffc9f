//! In-memory span store, self-time arithmetic and per-thread CPU time.
//!
//! Spans are recorded only while tracing is switched on ([`set_enabled`]);
//! otherwise every guard is a no-op. A span's parent is the innermost
//! span opened with [`enter`] at the moment it starts — on any thread —
//! so kernel spans that run on compute-pool threads or on the fleet host
//! thread attach to the coordinator-side call that caused them.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `serve.round` or `nn.conv.fwd`.
    pub name: &'static str,
    /// The round or request the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the process's trace epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static OP: AtomicU64 = AtomicU64::new(0);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switches span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the round/request id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    OP.store(op, Ordering::Relaxed);
}

/// Takes every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *STORE.lock().expect("span store poisoned"))
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(Span, u64)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((mut span, prev_current)) = self.open.take() {
            span.end = now_ns();
            if prev_current != u64::MAX {
                CURRENT.store(prev_current, Ordering::Relaxed);
            }
            if let Ok(mut store) = STORE.lock() {
                store.push(span);
            }
        }
    }
}

fn open(name: &'static str, scope: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.load(Ordering::Relaxed);
    let prev_current = if scope {
        CURRENT.store(id, Ordering::Relaxed);
        parent
    } else {
        u64::MAX
    };
    let span = Span {
        id,
        parent,
        name,
        op: OP.load(Ordering::Relaxed),
        start: now_ns(),
        end: 0,
    };
    Guard {
        open: Some((span, prev_current)),
    }
}

/// Opens a span that becomes the parent of every span started (on any
/// thread) until it closes. Use on the single driving thread only.
pub fn enter(name: &'static str) -> Guard {
    open(name, true)
}

/// Opens a leaf span: a child of the current scope that parents nothing.
/// Safe on any thread.
pub fn leaf(name: &'static str) -> Guard {
    open(name, false)
}

/// Length of the union of `intervals` (half-open `[start, end)` pairs).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, by id: its duration minus the union of its
/// direct children's intervals (clipped to the span). Children that run
/// concurrently on several threads overlap; taking their union keeps
/// self time within `[0, duration]`.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = match children.get_mut(&s.id) {
                Some(kids) => {
                    let mut clipped: Vec<(u64, u64)> = kids
                        .iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .collect();
                    union_len(&mut clipped)
                }
                None => 0,
            };
            (s.id, s.duration() - covered.min(s.duration()))
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// The OS id of the calling thread, when `/proc` is mounted.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time (user + system) a thread of this process has consumed, in
/// nanoseconds; `None` when `/proc` is unavailable. Prefers the
/// nanosecond `schedstat` counter and falls back to `stat`'s clock ticks
/// (the /proc ABI fixes those at 100 per second).
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let base = format!("/proc/self/task/{tid}");
    if let Ok(s) = std::fs::read_to_string(format!("{base}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = std::fs::read_to_string(format!("{base}/stat")).ok()?;
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, in
/// nanoseconds. The kernel's task clock leaves out time the hypervisor
/// stole from the virtual CPU, so unlike wall time it does not drift with
/// the host's load.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call and
    // the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Share of the machine's CPU time the hypervisor stole between two
/// `/proc/stat` readings (see [`cpu_ticks`]); `None` without `/proc`.
pub fn steal_ratio(before: &[u64], after: &[u64]) -> Option<f64> {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = d.iter().sum();
    (total > 0 && d.len() > 7).then(|| d[7] as f64 / total as f64)
}

/// The aggregate `cpu` line of `/proc/stat` (user, nice, system, idle,
/// iowait, irq, softirq, steal, …), in clock ticks; empty without `/proc`.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// A thread's busy (CPU) and waiting (wall minus CPU) time over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadWindow {
    tid: u32,
    cpu0: u64,
    wall0: u64,
}

impl ThreadWindow {
    /// Starts a window on thread `tid`; `None` when `/proc` is unavailable.
    pub fn start(tid: u32) -> Option<ThreadWindow> {
        Some(ThreadWindow {
            tid,
            cpu0: thread_cpu_ns(tid)?,
            wall0: now_ns(),
        })
    }

    /// `(busy_ns, wait_ns)` since the window started.
    pub fn finish(&self) -> Option<(u64, u64)> {
        let busy = thread_cpu_ns(self.tid)?.saturating_sub(self.cpu0);
        let wall = now_ns().saturating_sub(self.wall0);
        Some((busy, wall.saturating_sub(busy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(3, 4), (0, 10)]), 10);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn overlapping_children_on_two_threads_never_drive_self_negative() {
        // Root [0, 100): two pool threads run children [10, 70) and
        // [20, 90) concurrently (summed: 130 > 100), plus one child that
        // starts before the root and is clipped to it.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 70),
            span(3, 1, 20, 90),
            span(4, 1, 0, 5),
            // A grandchild: covered by its own parent, not by the root.
            span(5, 2, 15, 60),
        ];
        let selfs = self_times(&spans);
        // Union of children of 1: [0,5) ∪ [10,90) = 85.
        assert_eq!(selfs[&1], 15);
        assert_eq!(selfs[&2], 60 - 45);
        assert_eq!(selfs[&3], 70);
        assert_eq!(selfs[&5], 45);
    }

    #[test]
    fn children_covering_more_than_the_parent_clamp_to_zero() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 0, 30), span(3, 1, 12, 18)];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 0);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["t"].count, 3);
        assert_eq!(totals["t"].total_ns, 10 + 30 + 6);
    }

    #[test]
    fn thread_cpu_is_read_for_the_calling_thread() {
        if let Some(tid) = current_tid() {
            let w = ThreadWindow::start(tid).expect("proc mounted");
            // Spin for 50 ms: the kernel refreshes a running thread's
            // runtime on scheduler ticks, so a shorter loop may read 0.
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 50 {
                x = x.wrapping_add(std::hint::black_box(1));
            }
            std::hint::black_box(x);
            let (busy, _wait) = w.finish().expect("proc mounted");
            assert!(busy > 0);
        }
    }
}
