//! The metrics logs: [`RequestLog`], [`AccessLog`] and [`WindowLog`], each
//! stored as a copy-on-write [`SegLog`] (see `simnet::seglog` for the
//! layout and its COW invariants).
//!
//! `Metrics` grows append-only for an entire run, but warm-state forking
//! (`snapshot` module) clones it once per sweep cell; the segmented layout
//! makes that clone O(tail) instead of O(run length).
//!
//! On top of the request log, [`RequestIndex`] is built per segment at seal
//! time (CSR posting lists keyed by request type, by origin class, by both
//! and by outcome) so telemetry queries touch only matching records.
//! Records are appended in completion order, so each posting list is
//! chronologically sorted and time ranges resolve with binary search.
//! Queries stream matches in exactly the order a naive full scan would
//! visit them, which keeps downstream floating-point accumulations (means,
//! percentile sorts) **bit-identical** to the unindexed implementation.

use std::ops::Deref;

use callgraph::RequestTypeId;
use serde::{DeError, Deserialize, Serialize, Value};
use simnet::{SegIndex, SegLog, SegLogIter, SimTime};

use crate::job::Outcome;
use crate::metrics::{AccessLogEntry, NetworkWindow, RequestRecord, ServiceWindow};

/// Window rows per sealed segment of the [`WindowLog`].
pub const ROWS_PER_SEG: usize = 128;

/// A filter over request-log records for indexed queries.
///
/// `None` fields match everything; `Default` is the unfiltered query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestFilter {
    /// Restrict to attack (`Some(true)`) or legitimate (`Some(false)`)
    /// traffic.
    pub is_attack: Option<bool>,
    /// Restrict to one request type.
    pub request_type: Option<RequestTypeId>,
    /// Restrict to one request [`Outcome`] (the resilience status axis).
    pub outcome: Option<Outcome>,
}

impl RequestFilter {
    /// Whether a record passes this filter (time range excluded).
    pub fn matches(self, rec: &RequestRecord) -> bool {
        self.is_attack.is_none_or(|a| rec.origin.is_attack == a)
            && self.request_type.is_none_or(|t| rec.request_type == t)
            && self.outcome.is_none_or(|o| rec.outcome == o)
    }
}

/// Compressed-sparse-row posting lists: `group(k)` is the ascending list of
/// record offsets whose key is `k`. The per-segment [`RequestIndex`] of
/// the [`RequestLog`] is built from these.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// `starts[k]..starts[k + 1]` delimits group `k` inside `offsets`.
    starts: Vec<u32>,
    /// Record offsets, grouped by key, ascending within each group.
    offsets: Vec<u32>,
}

impl Csr {
    /// Builds posting lists over `records` with a counting sort (stable, so
    /// offsets stay ascending — i.e. chronological — within each group).
    /// Runs only at segment seal, once per `seg_cap` records.
    pub fn build<T>(records: &[T], key: impl Fn(&T) -> usize) -> Csr {
        let groups = records.iter().map(&key).max().map_or(0, |m| m + 1);
        let mut starts = vec![0u32; groups + 1];
        for rec in records {
            starts[key(rec) + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut cursor = starts.clone();
        let mut offsets = vec![0u32; records.len()];
        for (i, rec) in records.iter().enumerate() {
            let k = key(rec);
            offsets[cursor[k] as usize] = i as u32;
            cursor[k] += 1;
        }
        Csr { starts, offsets }
    }

    /// The ascending offsets of group `k` (empty when `k` never occurred).
    pub fn group(&self, k: usize) -> &[u32] {
        if k + 1 >= self.starts.len() {
            return &[];
        }
        &self.offsets[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// Per-segment query index of the [`RequestLog`], built once at seal time
/// and shared between clones exactly like the segment it describes.
#[derive(Debug, Clone)]
pub struct RequestIndex {
    /// Offsets keyed by `request_type.index()`.
    by_type: Csr,
    /// Offsets keyed by `origin.is_attack` (0 = legit, 1 = attack).
    by_origin: Csr,
    /// Offsets keyed by `request_type.index() * 2 + is_attack`.
    by_type_origin: Csr,
    /// Offsets keyed by [`Outcome::index`] (the resilience status axis).
    by_outcome: Csr,
}

impl SegIndex<RequestRecord> for RequestIndex {
    fn build(records: &[RequestRecord]) -> RequestIndex {
        RequestIndex {
            by_type: Csr::build(records, |r| r.request_type.index()),
            by_origin: Csr::build(records, |r| usize::from(r.origin.is_attack)),
            by_type_origin: Csr::build(records, |r| {
                r.request_type.index() * 2 + usize::from(r.origin.is_attack)
            }),
            by_outcome: Csr::build(records, |r| r.outcome.index()),
        }
    }
}

impl RequestIndex {
    /// Resolves `filter` against this segment's posting lists: the list to
    /// walk (`None` = every record in the segment) plus a residual outcome
    /// predicate to apply per record.
    ///
    /// An outcome-only filter walks `by_outcome` directly with no residual;
    /// combined with another axis the denser type/origin list is walked and
    /// the outcome is re-checked per record (no three-axis product index —
    /// outcomes other than `Ok` are rare, so the residual check touches few
    /// extra records). A filter without an outcome resolves exactly as it
    /// did before the status axis existed.
    fn plan(&self, filter: RequestFilter) -> (Option<&[u32]>, Option<Outcome>) {
        match (filter.is_attack, filter.request_type) {
            (None, None) => match filter.outcome {
                None => (None, None),
                Some(o) => (Some(self.by_outcome.group(o.index())), None),
            },
            (Some(a), None) => (Some(self.by_origin.group(usize::from(a))), filter.outcome),
            (None, Some(t)) => (Some(self.by_type.group(t.index())), filter.outcome),
            (Some(a), Some(t)) => (
                Some(self.by_type_origin.group(t.index() * 2 + usize::from(a))),
                filter.outcome,
            ),
        }
    }
}

/// The completed-request log: a [`SegLog`] of [`RequestRecord`]s whose
/// segments each carry a [`RequestIndex`], so queries touch only matching
/// records. Derefs to the underlying [`SegLog`] for plain reads.
///
/// Records are appended in completion order (the kernel records a request
/// when its response event fires, and events fire in time order), so the
/// log is sorted by `completed_at` — the invariant every binary search here
/// relies on, asserted on push in debug builds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestLog(SegLog<RequestRecord, RequestIndex>);

impl RequestLog {
    /// Creates an empty log sealing every `seg_cap` records (small caps are
    /// used by tests to exercise many segments cheaply).
    #[cfg(test)]
    fn with_seg_cap(seg_cap: usize) -> Self {
        RequestLog(SegLog::with_seg_cap(seg_cap))
    }

    /// Appends one record; must be called in completion-time order.
    pub(crate) fn push(&mut self, rec: RequestRecord) {
        debug_assert!(
            self.0
                .last()
                .is_none_or(|prev| prev.completed_at <= rec.completed_at),
            "request log must be appended in completion order"
        );
        self.0.push(rec);
    }

    /// Number of records completed in `[from, to)` that pass `filter`.
    ///
    /// O(log) per sealed segment overlapping the window via the
    /// posting-list index, after one binary search past the segments
    /// before it; only the tail (bounded by the segment capacity) is
    /// scanned.
    pub fn count_matching(&self, from: SimTime, to: SimTime, filter: RequestFilter) -> usize {
        let mut n = 0;
        self.query(from, to, filter, |matched| n += matched.len());
        n
    }

    /// Calls `f` for every record completed in `[from, to)` that passes
    /// `filter`, **in completion order** — exactly the order a naive scan
    /// of the full log would visit them, so float accumulations downstream
    /// stay bit-identical to the unindexed implementation.
    pub fn for_each_matching(
        &self,
        from: SimTime,
        to: SimTime,
        filter: RequestFilter,
        mut f: impl FnMut(&RequestRecord),
    ) {
        self.query(from, to, filter, |matched| match matched {
            Matched::Run(recs) => recs.iter().for_each(&mut f),
            Matched::Posting(recs, offsets) => {
                for &o in offsets {
                    f(&recs[o as usize]);
                }
            }
        });
    }

    /// Shared query walk: resolves `[from, to)` × `filter` to per-segment
    /// match sets, visiting segments (then the tail) in order.
    fn query(
        &self,
        from: SimTime,
        to: SimTime,
        filter: RequestFilter,
        mut visit: impl FnMut(Matched<'_>),
    ) {
        if to <= from {
            return;
        }
        // Segments are chronological, so those whose last record completed
        // before `from` form a prefix: skip it by binary search.
        let sealed = self.0.sealed();
        let skip =
            sealed.partition_point(|seg| seg.items().last().is_some_and(|r| r.completed_at < from));
        for seg in &sealed[skip..] {
            let recs = seg.items();
            if recs[0].completed_at >= to {
                break; // segments are chronological: nothing later matches
            }
            match seg.index().plan(filter) {
                (None, _) => {
                    let lo = recs.partition_point(|r| r.completed_at < from);
                    let hi = recs.partition_point(|r| r.completed_at < to);
                    visit(Matched::Run(&recs[lo..hi]));
                }
                (Some(offsets), None) => {
                    let lo = offsets.partition_point(|&o| recs[o as usize].completed_at < from);
                    let hi = offsets.partition_point(|&o| recs[o as usize].completed_at < to);
                    visit(Matched::Posting(recs, &offsets[lo..hi]));
                }
                (Some(offsets), Some(outcome)) => {
                    // Residual outcome check over the axis posting list;
                    // offsets are ascending, so emission order is still
                    // exactly naive-scan order.
                    let lo = offsets.partition_point(|&o| recs[o as usize].completed_at < from);
                    let hi = offsets.partition_point(|&o| recs[o as usize].completed_at < to);
                    for &o in &offsets[lo..hi] {
                        let rec = &recs[o as usize];
                        if rec.outcome == outcome {
                            visit(Matched::Run(std::slice::from_ref(rec)));
                        }
                    }
                }
            }
        }
        let tail = self.0.tail();
        let lo = tail.partition_point(|r| r.completed_at < from);
        let hi = tail.partition_point(|r| r.completed_at < to);
        for rec in &tail[lo..hi] {
            if filter.matches(rec) {
                visit(Matched::Run(std::slice::from_ref(rec)));
            }
        }
    }
}

impl Deref for RequestLog {
    type Target = SegLog<RequestRecord, RequestIndex>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a RequestLog {
    type Item = &'a RequestRecord;
    type IntoIter = SegLogIter<'a, RequestRecord, RequestIndex>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One resolved match set inside a segment: either a contiguous run of
/// records or a posting list of offsets into the segment.
enum Matched<'a> {
    Run(&'a [RequestRecord]),
    Posting(&'a [RequestRecord], &'a [u32]),
}

impl Matched<'_> {
    fn len(&self) -> usize {
        match self {
            Matched::Run(recs) => recs.len(),
            Matched::Posting(_, offsets) => offsets.len(),
        }
    }
}

/// The access log: a plain [`SegLog`] of [`AccessLogEntry`]s, one per
/// submitted request. Derefs to the underlying [`SegLog`] for plain reads.
///
/// Entries are appended at submission time, and submissions happen in
/// event order, so the log is sorted by `at` — asserted on push in debug
/// builds. That order is the log's only index: a sealed segment's first
/// and last entries bound its time range, so a window query
/// ([`AccessLog::for_each_in`], [`AccessLog::count_in`]) skips the
/// segments outside the window and binary-searches the rest. Defense
/// analytics (`defense::Ids`, `defense::RateShield`) group one window's
/// entries by IP or session with a single sort.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessLog(SegLog<AccessLogEntry>);

impl AccessLog {
    /// Creates an empty log sealing every `seg_cap` entries (small caps are
    /// used by tests to exercise many segments cheaply).
    #[cfg(test)]
    fn with_seg_cap(seg_cap: usize) -> Self {
        AccessLog(SegLog::with_seg_cap(seg_cap))
    }

    /// Appends one entry; must be called in submission-time order.
    pub(crate) fn push(&mut self, entry: AccessLogEntry) {
        debug_assert!(
            self.0.last().is_none_or(|prev| prev.at <= entry.at),
            "access log must be appended in submission order"
        );
        self.0.push(entry);
    }

    /// Calls `f` for every entry submitted in `[from, to)`, in submission
    /// order. O(log) per overlapping segment to locate the run, O(matching)
    /// to visit.
    pub fn for_each_in(&self, from: SimTime, to: SimTime, mut f: impl FnMut(&AccessLogEntry)) {
        for run in self.runs_in(from, to) {
            run.iter().for_each(&mut f);
        }
    }

    /// Number of entries submitted in `[from, to)`. O(log) per overlapping
    /// segment.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> usize {
        self.runs_in(from, to).map(<[_]>::len).sum()
    }

    /// Full-scan twin of [`AccessLog::for_each_in`]: walks every entry and
    /// filters by time, ignoring the per-segment indexes. Ground truth for
    /// differential tests; visit order is identical (submission order).
    pub fn for_each_naive(&self, from: SimTime, to: SimTime, mut f: impl FnMut(&AccessLogEntry)) {
        if to <= from {
            return;
        }
        for e in &self.0 {
            if e.at >= from && e.at < to {
                f(e);
            }
        }
    }

    /// Full-scan twin of [`AccessLog::count_in`].
    pub fn count_naive(&self, from: SimTime, to: SimTime) -> usize {
        let mut n = 0;
        self.for_each_naive(from, to, |_| n += 1);
        n
    }

    /// The entries submitted in `[from, to)` as one slice per storage slab
    /// (sealed segments, then the tail), in submission order. The sealed
    /// segments that end before `from` form a prefix, skipped by binary
    /// search; the walk stops at the first slab that starts at or after
    /// `to`. An empty or inverted window yields nothing.
    fn runs_in(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &[AccessLogEntry]> {
        let sealed = self.0.sealed();
        let skip = sealed.partition_point(|seg| seg.items().last().is_some_and(|e| e.at < from));
        sealed[skip..]
            .iter()
            .map(|seg| seg.items())
            .chain(std::iter::once(self.0.tail()))
            .take_while(move |slab| from < to && slab.first().is_some_and(|e| e.at < to))
            .map(move |slab| {
                let lo = slab.partition_point(|e| e.at < from);
                let hi = slab.partition_point(|e| e.at < to);
                &slab[lo..hi]
            })
    }
}

impl Deref for AccessLog {
    type Target = SegLog<AccessLogEntry>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a AccessLog {
    type Item = &'a AccessLogEntry;
    type IntoIter = SegLogIter<'a, AccessLogEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The sampled monitoring windows: per-service rows plus the parallel
/// gateway network series, stored as aligned [`SegLog`]s.
///
/// Row `w` holds the `num_services` samples of window `w` (start time
/// exactly `w * window`: the kernel samples on fixed boundaries), stored
/// contiguously; the service segment capacity is a whole number of rows, so
/// a row never straddles segments and row access is O(1).
#[derive(Clone, PartialEq)]
pub struct WindowLog {
    num_services: usize,
    rows_per_seg: usize,
    /// Flat row-major service samples; segment capacity
    /// `rows_per_seg * num_services`.
    services: SegLog<ServiceWindow>,
    /// One gateway sample per row; segment capacity `rows_per_seg`.
    network: SegLog<NetworkWindow>,
}

impl WindowLog {
    /// Creates an empty window log for `num_services` services.
    pub(crate) fn new(num_services: usize) -> Self {
        Self::with_rows_per_seg(num_services, ROWS_PER_SEG)
    }

    /// Creates an empty window log sealing every `rows_per_seg` rows.
    pub(crate) fn with_rows_per_seg(num_services: usize, rows_per_seg: usize) -> Self {
        WindowLog {
            num_services,
            rows_per_seg,
            services: SegLog::with_seg_cap(rows_per_seg * num_services.max(1)),
            network: SegLog::with_seg_cap(rows_per_seg),
        }
    }

    /// Appends one row of service samples plus its network sample.
    pub(crate) fn push_row(&mut self, services: &[ServiceWindow], network: NetworkWindow) {
        debug_assert_eq!(services.len(), self.num_services);
        for w in services {
            self.services.push(*w);
        }
        self.network.push(network);
    }

    /// Number of sampled rows (windows).
    pub fn rows(&self) -> usize {
        self.network.len()
    }

    /// Iterates all rows in time order; each item is the row's
    /// `num_services` samples.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[ServiceWindow]> + '_ {
        let n = self.num_services.max(1);
        self.services
            .slabs()
            .flat_map(move |slab| slab.chunks_exact(n))
    }

    /// One service's samples over the row range `[lo, hi)`, in time order.
    /// Locating the range is O(1) per storage slab; iteration is
    /// O(matching rows).
    pub fn service_range(
        &self,
        service: usize,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &ServiceWindow> + '_ {
        let n = self.num_services.max(1);
        let per = self.rows_per_seg;
        self.services
            .slabs()
            .enumerate()
            .flat_map(move |(i, slab)| {
                let base = i * per;
                let rows = slab.len() / n;
                let b = hi.clamp(base, base + rows) - base;
                let a = (lo.clamp(base, base + rows) - base).min(b);
                slab[a * n..b * n].iter().skip(service).step_by(n)
            })
    }

    /// The network samples of the row range `[lo, hi)`, in time order.
    pub fn network_range(&self, lo: usize, hi: usize) -> impl Iterator<Item = &NetworkWindow> + '_ {
        let per = self.rows_per_seg;
        self.network.slabs().enumerate().flat_map(move |(i, slab)| {
            let base = i * per;
            let b = hi.clamp(base, base + slab.len()) - base;
            let a = (lo.clamp(base, base + slab.len()) - base).min(b);
            &slab[a..b]
        })
    }
}

impl Serialize for WindowLog {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("num_services".to_string(), self.num_services.to_value()),
            ("service_windows".to_string(), {
                Value::Seq(self.services.iter().map(Serialize::to_value).collect())
            }),
            ("network_windows".to_string(), {
                Value::Seq(self.network.iter().map(Serialize::to_value).collect())
            }),
        ])
    }
}

impl<'de> Deserialize<'de> for WindowLog {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| DeError::custom(format!("WindowLog: missing field `{name}`")))
        };
        let num_services = usize::from_value(field("num_services")?)?;
        let services = Vec::<ServiceWindow>::from_value(field("service_windows")?)?;
        let network = Vec::<NetworkWindow>::from_value(field("network_windows")?)?;
        if services.len() != network.len() * num_services {
            return Err(DeError::custom(format!(
                "WindowLog: {} service samples do not fill {} rows of {} services",
                services.len(),
                network.len(),
                num_services
            )));
        }
        let mut log = WindowLog::new(num_services);
        if num_services == 0 {
            for net in network {
                log.push_row(&[], net);
            }
        } else {
            for (row, net) in services.chunks(num_services).zip(network) {
                log.push_row(row, net);
            }
        }
        Ok(log)
    }
}

impl std::fmt::Debug for WindowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowLog")
            .field("rows", &self.rows())
            .field("services", &self.services)
            .field("network", &self.network)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Origin;
    use proptest::prelude::*;
    use simnet::SimDuration;

    /// The outcome variants in [`Outcome::index`] order, for strategies.
    const OUTCOMES: [Outcome; 4] = [
        Outcome::Ok,
        Outcome::TimedOut,
        Outcome::Rejected,
        Outcome::Shed,
    ];

    fn rec(t_us: u64, ty: usize, attack: bool) -> RequestRecord {
        rec_out(t_us, ty, attack, Outcome::Ok)
    }

    fn rec_out(t_us: u64, ty: usize, attack: bool, outcome: Outcome) -> RequestRecord {
        RequestRecord {
            request_type: RequestTypeId::new(ty as u32),
            origin: if attack {
                Origin::attack(9, 9)
            } else {
                Origin::legit(1, 1)
            },
            submitted_at: SimTime::from_micros(t_us.saturating_sub(500)),
            completed_at: SimTime::from_micros(t_us),
            outcome,
        }
    }

    #[test]
    fn outcome_axis_filters_and_counts() {
        use Outcome::*;
        let mut log = RequestLog::with_seg_cap(4);
        let mut records = Vec::new();
        let outcomes = [Ok, TimedOut, Ok, Shed, Rejected, Ok, TimedOut, Ok, Ok, Shed];
        for (i, &o) in outcomes.iter().enumerate() {
            let r = rec_out(i as u64 * 1000, i % 2, i % 3 == 0, o);
            log.push(r);
            records.push(r);
        }
        let (from, to) = (SimTime::ZERO, SimTime::from_micros(100_000));
        // Outcome-only filter: walks the by_outcome posting lists.
        let f = RequestFilter {
            outcome: Some(TimedOut),
            ..Default::default()
        };
        let mut got = Vec::new();
        log.for_each_matching(from, to, f, |r| got.push(*r));
        assert_eq!(got, naive(&records, from, to, f));
        assert_eq!(log.count_matching(from, to, f), 2);
        // Outcome combined with another axis: residual-predicate path.
        let f2 = RequestFilter {
            outcome: Some(Ok),
            request_type: Some(RequestTypeId::new(0)),
            ..Default::default()
        };
        let mut got2 = Vec::new();
        log.for_each_matching(from, to, f2, |r| got2.push(*r));
        assert_eq!(got2, naive(&records, from, to, f2));
    }

    #[test]
    fn request_log_fork_leaves_sealed_segments_untouched() {
        let mut log = RequestLog::with_seg_cap(4);
        for i in 0..10u64 {
            log.push(rec(i * 1000, (i % 3) as usize, i % 2 == 0));
        }
        let fork = log.clone();
        for i in 10..30u64 {
            log.push(rec(i * 1000, (i % 3) as usize, i % 2 == 0));
        }
        // The fork still sees exactly the first 10 records...
        assert_eq!(fork.len(), 10);
        assert_eq!(
            fork.iter().map(|r| r.completed_at).collect::<Vec<_>>(),
            (0..10u64)
                .map(|i| SimTime::from_micros(i * 1000))
                .collect::<Vec<_>>()
        );
        // ...and its sealed segments are physically shared with the
        // original (COW: appends went to fresh tails/segments only).
        assert_eq!(fork.sealed().len(), 2);
        for (a, b) in fork.sealed().iter().zip(log.sealed()) {
            assert!(
                std::sync::Arc::ptr_eq(a, b),
                "warm prefix must be shared, not copied"
            );
        }
        // Deterministic segmentation: a cold log with the same records is
        // logically equal.
        let mut cold = RequestLog::with_seg_cap(4);
        for i in 0..30u64 {
            cold.push(rec(i * 1000, (i % 3) as usize, i % 2 == 0));
        }
        assert_eq!(cold, log);
    }

    #[test]
    fn window_log_rows_and_ranges() {
        let mut wl = WindowLog::with_rows_per_seg(2, 3);
        for w in 0..8u64 {
            let row = [
                ServiceWindow {
                    start: SimTime::from_millis(w * 100),
                    busy: SimDuration::from_millis(w),
                    active_cores: 1,
                    admitted: 0,
                    waiting: 0,
                    arrivals: w as u32,
                    completions: 0,
                    replicas: 1,
                },
                ServiceWindow {
                    start: SimTime::from_millis(w * 100),
                    busy: SimDuration::from_millis(100 - w),
                    active_cores: 1,
                    admitted: 0,
                    waiting: 0,
                    arrivals: 100 + w as u32,
                    completions: 0,
                    replicas: 1,
                },
            ];
            wl.push_row(
                &row,
                NetworkWindow {
                    bytes_in: w,
                    bytes_out: 0,
                },
            );
        }
        assert_eq!(wl.rows(), 8);
        assert_eq!(wl.rows_iter().count(), 8);
        for (w, row) in wl.rows_iter().enumerate() {
            assert_eq!(row.len(), 2);
            assert_eq!(row[0].arrivals as usize, w);
            assert_eq!(row[1].arrivals as usize, 100 + w);
        }
        // Ranges spanning segment boundaries (3 rows per segment).
        let col1: Vec<u32> = wl.service_range(1, 2, 7).map(|s| s.arrivals).collect();
        assert_eq!(col1, vec![102, 103, 104, 105, 106]);
        let net: Vec<u64> = wl.network_range(2, 7).map(|n| n.bytes_in).collect();
        assert_eq!(net, vec![2, 3, 4, 5, 6]);
        // Degenerate and clamped ranges.
        assert_eq!(wl.service_range(0, 5, 5).count(), 0);
        assert_eq!(wl.network_range(6, 100).count(), 2);
        // A clone shares sealed slabs and is logically equal.
        let fork = wl.clone();
        assert_eq!(fork, wl);
    }

    fn access(t_us: u64, ip: u32, session: u64, bytes: u64) -> AccessLogEntry {
        AccessLogEntry {
            at: SimTime::from_micros(t_us),
            origin: Origin::legit(ip, session),
            request_type: RequestTypeId::new(0),
            bytes,
        }
    }

    #[test]
    fn access_log_window_queries_match_naive() {
        let mut log = AccessLog::with_seg_cap(4);
        let mut entries = Vec::new();
        for i in 0..37u64 {
            let e = access(i * 250, 10 + (i % 3) as u32, i % 4, i);
            log.push(e);
            entries.push(e);
        }
        let (from, to) = (SimTime::from_micros(2_000), SimTime::from_micros(7_000));
        let in_window = |e: &&AccessLogEntry| e.at >= from && e.at < to;

        let mut seen = Vec::new();
        log.for_each_in(from, to, |e| seen.push(*e));
        let expect: Vec<AccessLogEntry> = entries.iter().filter(in_window).copied().collect();
        assert_eq!(seen, expect);
        assert_eq!(log.count_in(from, to), expect.len());

        // The built-in full-scan twins agree with both the indexed path and
        // the shadow vector.
        let mut naive_seen = Vec::new();
        log.for_each_naive(from, to, |e| naive_seen.push(*e));
        assert_eq!(naive_seen, expect);
        assert_eq!(log.count_naive(from, to), expect.len());

        // Degenerate windows.
        assert_eq!(log.count_in(to, from), 0);
        assert_eq!(log.count_in(to, to), 0);
        assert_eq!(log.count_naive(to, from), 0);
    }

    /// Naive reference: full scan with predicate filtering.
    fn naive(
        records: &[RequestRecord],
        from: SimTime,
        to: SimTime,
        filter: RequestFilter,
    ) -> Vec<RequestRecord> {
        records
            .iter()
            .filter(|r| r.completed_at >= from && r.completed_at < to && filter.matches(r))
            .copied()
            .collect()
    }

    proptest! {
        /// Indexed window queries return exactly the records a naive full
        /// scan returns, in the same order — over random logs (random
        /// types, origins, duplicate timestamps) and random windows
        /// (overlapping, empty, out of range).
        #[test]
        fn indexed_queries_match_naive_scan(
            seg_cap in 1usize..9,
            steps in proptest::collection::vec(
                (0u64..400, 0usize..4, 0u8..2, 0u8..OUTCOMES.len() as u8),
                0..200,
            ),
            ranges in proptest::collection::vec((0u64..500, 0u64..500), 1..12),
            // 0 = no origin filter, 1 = legit only, 2 = attack only.
            attack_f in 0u8..3,
            // 0 = no type filter, k = restrict to type k - 1.
            type_f in 0u32..5,
            // 0 = no outcome filter, k = restrict to OUTCOMES[k - 1].
            outcome_f in 0u8..(OUTCOMES.len() as u8 + 1),
        ) {
            let mut log = RequestLog::with_seg_cap(seg_cap);
            let mut records = Vec::new();
            let mut t = 0u64;
            for (dt, ty, attack, outcome) in steps {
                t += dt; // non-decreasing completion times, duplicates allowed
                let r = rec_out(t, ty, attack == 1, OUTCOMES[outcome as usize]);
                log.push(r);
                records.push(r);
            }
            let filter = RequestFilter {
                is_attack: match attack_f {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                },
                request_type: type_f.checked_sub(1).map(RequestTypeId::new),
                outcome: outcome_f.checked_sub(1).map(|k| OUTCOMES[k as usize]),
            };
            for (a, b) in ranges {
                let (from, to) = (SimTime::from_micros(a), SimTime::from_micros(b));
                let expect = naive(&records, from, to, filter);
                let mut got = Vec::new();
                log.for_each_matching(from, to, filter, |r| got.push(*r));
                prop_assert_eq!(&got, &expect, "gather mismatch");
                prop_assert_eq!(log.count_matching(from, to, filter), expect.len(), "count mismatch");
            }
        }

        /// Access-log window queries agree with a naive full scan over
        /// random logs (duplicate timestamps) and random windows.
        #[test]
        fn access_window_queries_match_naive_scan(
            seg_cap in 1usize..9,
            steps in proptest::collection::vec((0u64..300, 0u32..4, 0u64..3), 0..160),
            ranges in proptest::collection::vec((0u64..400, 0u64..400), 1..10),
        ) {
            let mut log = AccessLog::with_seg_cap(seg_cap);
            let mut entries = Vec::new();
            let mut t = 0u64;
            for (dt, ip, session) in steps {
                t += dt;
                let e = access(t, 20 + ip, session, 64);
                log.push(e);
                entries.push(e);
            }
            for (a, b) in ranges {
                let (from, to) = (SimTime::from_micros(a), SimTime::from_micros(b));
                let mut got = Vec::new();
                log.for_each_in(from, to, |e| got.push(*e));
                let expect: Vec<AccessLogEntry> = entries
                    .iter()
                    .filter(|e| e.at >= from && e.at < to)
                    .copied()
                    .collect();
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(log.count_in(from, to), expect.len());
            }
        }
    }
}
