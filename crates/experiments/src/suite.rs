//! Suite simulation and on-disk trace caching.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use tpcp_trace::{
    decode_trace, encode_trace_with_index, validate_trace, BranchEvent, CodecError,
    RecordedInterval, RecordedTrace, TraceIndex, TRACE_FORMAT,
};
use tpcp_workloads::{BenchmarkKind, OpenInterval, WorkloadParams};

/// A cache failure the bounded retry could not repair.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The cached entry was corrupt, was quarantined (renamed
    /// `*.corrupt`), and the freshly re-simulated replacement *still*
    /// failed validation — the one-retry bound is exhausted. Outside
    /// fault injection this means the encoder itself is broken.
    CorruptAfterRetry {
        /// The benchmark label whose trace could not be produced.
        trace: String,
        /// The validation error on the retried buffer.
        error: CodecError,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CorruptAfterRetry { trace, error } => write!(
                f,
                "trace {trace} still corrupt after quarantine and one re-simulation: {error}"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// A successful cache load: the validated encoded buffer and its interval
/// index, plus how the cache produced them — a straight hit, or a
/// (possibly quarantining) miss.
#[derive(Debug, Clone)]
pub struct CacheLoad {
    /// The validated trace buffer, in the current [`TRACE_FORMAT`].
    pub bytes: Bytes,
    /// The interval index for `bytes` — loaded from the `.tpcpidx`
    /// sidecar when one validates against the payload, rebuilt (and
    /// re-persisted) otherwise. Always consistent with `bytes`.
    pub index: TraceIndex,
    /// `true` when the buffer came straight from a valid on-disk entry;
    /// `false` when the cache had to simulate (fresh miss or repair).
    pub hit: bool,
    /// `Some(path)` when a corrupt cache entry was renamed `*.corrupt`
    /// and the buffer came from a re-simulation instead.
    pub quarantined: Option<PathBuf>,
    /// `Some(path)` when a corrupt or mismatched index sidecar was
    /// quarantined alongside the payload (`<entry>.tpcpidx.corrupt`).
    pub quarantined_index: Option<PathBuf>,
}

/// Parameters of one suite simulation (everything that affects the traces).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SuiteParams {
    /// The workload parameters shared by all benchmarks.
    pub workload: WorkloadParams,
}

impl SuiteParams {
    /// A reduced-scale suite for tests and quick iterations.
    pub fn quick() -> Self {
        Self {
            workload: WorkloadParams {
                length_scale: 0.05,
                ..Default::default()
            },
        }
    }

    /// The same parameters at another interval size. The simulated block
    /// stream does not depend on it, so one simulation serves both.
    pub fn with_interval_size(self, interval_size: u64) -> Self {
        Self {
            workload: WorkloadParams {
                interval_size,
                ..self.workload
            },
        }
    }

    /// A stable fingerprint of the parameters (and the workload model
    /// version), used in cache file names.
    pub fn fingerprint(&self) -> String {
        let w = &self.workload;
        format!(
            "v{}-i{}-s{}-seed{:x}",
            tpcp_workloads::MODEL_VERSION,
            w.interval_size,
            (w.length_scale * 10_000.0).round() as u64,
            w.seed
        )
    }
}

/// An on-disk cache of simulated benchmark traces.
///
/// Simulating the full suite takes minutes; every figure replays the same
/// traces. The cache stores each benchmark's [`RecordedTrace`] in the
/// compact `tpcp-trace` codec under
/// `<dir>/<benchmark>-<fingerprint>-<format>.tpcptrc`, its interval index
/// next to it as `.tpcpidx`. The format is the codec's [`TRACE_FORMAT`]
/// in lower case, so an entry written in another format is never opened:
/// its sidecar would still vouch for its bytes, and the replay would fail
/// on them.
///
/// Entries of one benchmark that differ only in interval size come from
/// the same simulation ([`simulate_sizes`]). A miss made through the
/// engine, which passes the interval sizes its sweep registers for the
/// benchmark, simulates once and writes every one of those entries that
/// is absent, so an interval-size sweep simulates each benchmark once.
///
/// # Example
///
/// ```no_run
/// use tpcp_experiments::{SuiteParams, TraceCache};
/// use tpcp_workloads::BenchmarkKind;
///
/// let cache = TraceCache::new("target/tpcp-traces");
/// let trace = cache.load_or_simulate(BenchmarkKind::Mcf, &SuiteParams::default());
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
    #[cfg(feature = "fault-inject")]
    faults: Option<std::sync::Arc<crate::fault::FaultInjector>>,
}

impl TraceCache {
    /// Creates a cache rooted at `dir` (created on first write).
    pub fn new<P: AsRef<Path>>(dir: P) -> Self {
        Self {
            dir: dir.as_ref().to_owned(),
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// The default cache location inside the workspace target directory.
    pub fn default_location() -> Self {
        Self::new("target/tpcp-traces")
    }

    /// Attaches a fault injector: subsequent loads consult it for read
    /// failures and byte truncations (chaos tests only).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: std::sync::Arc<crate::fault::FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The path of a benchmark's cache file with extension `ext`.
    fn entry_path(&self, kind: BenchmarkKind, params: &SuiteParams, ext: &str) -> PathBuf {
        let safe_name = kind.label().replace('/', "_");
        let format = TRACE_FORMAT.to_ascii_lowercase();
        self.dir.join(format!(
            "{safe_name}-{}-{format}.{ext}",
            params.fingerprint()
        ))
    }

    fn path_for(&self, kind: BenchmarkKind, params: &SuiteParams) -> PathBuf {
        self.entry_path(kind, params, "tpcptrc")
    }

    /// The interval-index sidecar path next to a benchmark's payload
    /// entry (`<entry>.tpcpidx` instead of `<entry>.tpcptrc`).
    fn index_path_for(&self, kind: BenchmarkKind, params: &SuiteParams) -> PathBuf {
        self.entry_path(kind, params, "tpcpidx")
    }

    /// Loads the benchmark's trace from the cache, simulating and storing
    /// it on a miss.
    ///
    /// Materializes the full [`RecordedTrace`]; replay-only consumers
    /// (the experiment engine) should prefer
    /// [`try_load_bytes_or_simulate`](Self::try_load_bytes_or_simulate)
    /// and stream the encoded buffer instead.
    ///
    /// # Panics
    ///
    /// Panics on [`CacheError`] — unreachable without fault injection
    /// (see [`try_load_bytes_or_simulate`](Self::try_load_bytes_or_simulate)).
    pub fn load_or_simulate(&self, kind: BenchmarkKind, params: &SuiteParams) -> RecordedTrace {
        let bytes = self.load_bytes_or_simulate(kind, params);
        match decode_trace(bytes) {
            Ok(trace) => trace,
            // The buffer passed `validate_trace` moments ago, so a decode
            // failure here means the validator and decoder disagree.
            Err(e) => panic!("validated trace buffer failed to decode: {e}"),
        }
    }

    /// Infallible wrapper around
    /// [`try_load_bytes_or_simulate`](Self::try_load_bytes_or_simulate)
    /// for callers without an error channel.
    ///
    /// # Panics
    ///
    /// Panics on [`CacheError`]: the entry was corrupt *and* the
    /// quarantine-plus-one-retry repair failed, which cannot happen
    /// outside fault injection unless the encoder itself is broken.
    pub fn load_bytes_or_simulate(&self, kind: BenchmarkKind, params: &SuiteParams) -> Bytes {
        match self.try_load_bytes_or_simulate(kind, params) {
            Ok(load) => load.bytes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Loads the benchmark's *encoded* trace buffer from the cache,
    /// simulating, encoding, and storing it on a miss. The returned
    /// buffer is always a valid trace in the current format — cached
    /// bytes are checked with [`validate_trace`] before being returned —
    /// so callers can stream it straight into live consumers with
    /// [`tpcp_trace::StreamingDecoder`] without materializing a
    /// [`RecordedTrace`].
    ///
    /// A corrupt entry (whether the header or a byte mid-stream) is
    /// **quarantined** — renamed `<entry>.corrupt`, preserving the
    /// evidence — and repaired with a bounded retry: one re-simulation.
    /// If the retried buffer still fails validation the error is
    /// returned, never looped on.
    ///
    /// The `.tpcpidx` sidecar travels with the payload at every step:
    ///
    /// - a hit whose sidecar decodes and validates against the payload
    ///   skips the full frame re-walk (the sidecar's checksum ties it to
    ///   exactly these bytes, and it was built by a complete, validating
    ///   decode pass);
    /// - a hit *without* a sidecar rebuilds the index from the payload
    ///   (which doubles as full validation) and re-persists it;
    /// - a corrupt or mismatched sidecar quarantines **index and payload
    ///   together** — a sidecar that lies about its payload makes the
    ///   pair's provenance suspect — and re-simulates once.
    pub fn try_load_bytes_or_simulate(
        &self,
        kind: BenchmarkKind,
        params: &SuiteParams,
    ) -> Result<CacheLoad, CacheError> {
        self.try_load_with_siblings(kind, params, &[])
    }

    /// [`try_load_bytes_or_simulate`](Self::try_load_bytes_or_simulate)
    /// for one of several entries of `kind` that differ from `params` only
    /// in interval size, `siblings` being their sizes (`params`' own may
    /// be among them). A hit is the same. A miss, or a quarantine repair,
    /// simulates once for `params`' size and for every sibling whose
    /// payload file is absent, and writes each of those entries, so the
    /// siblings' own loads hit. An existing sibling file is never
    /// overwritten (a corrupt one is quarantined by its own load), and a
    /// directory that cannot be created gets no siblings simulated.
    pub(crate) fn try_load_with_siblings(
        &self,
        kind: BenchmarkKind,
        params: &SuiteParams,
        siblings: &[u64],
    ) -> Result<CacheLoad, CacheError> {
        let path = self.path_for(kind, params);
        let index_path = self.index_path_for(kind, params);
        let mut quarantined = None;
        let mut quarantined_index = None;
        if let Some(bytes) = self.read_entry(kind, &path) {
            let bytes = self.inject_truncation(kind, bytes.into());
            match fs::read(&index_path).ok() {
                Some(sidecar) => {
                    match TraceIndex::decode(&sidecar)
                        .and_then(|ix| ix.validate(&bytes).map(|()| ix))
                    {
                        Ok(index) => {
                            return Ok(CacheLoad {
                                bytes,
                                index,
                                hit: true,
                                quarantined: None,
                                quarantined_index: None,
                            });
                        }
                        Err(_) => {
                            // Corrupt/mismatched sidecar: quarantine the
                            // pair and re-simulate once.
                            quarantined = quarantine(&path);
                            quarantined_index = quarantine(&index_path);
                        }
                    }
                }
                None => {
                    // Cache hit without a sidecar (pre-index entry, or a
                    // lost write): rebuild the index — a full validating
                    // walk — and persist it for the next reader.
                    if let Ok(index) = TraceIndex::build(&bytes) {
                        self.write_atomic(&index_path, &index.encode());
                        return Ok(CacheLoad {
                            bytes,
                            index,
                            hit: true,
                            quarantined: None,
                            quarantined_index: None,
                        });
                    }
                    // Corrupt payload: quarantine it and re-simulate once.
                    quarantined = quarantine(&path);
                }
            }
        }
        let writable = fs::create_dir_all(&self.dir).is_ok();
        let mut sizes = vec![params.workload.interval_size];
        if writable {
            for &size in siblings {
                // `metadata`, not `read_entry`: a sibling's read faults
                // belong to its own load.
                if !sizes.contains(&size)
                    && fs::metadata(self.path_for(kind, &params.with_interval_size(size))).is_err()
                {
                    sizes.push(size);
                }
            }
        }
        let traces = simulate_sizes(kind, params, &sizes);
        for (&size, trace) in sizes.iter().zip(&traces).skip(1) {
            let sibling = params.with_interval_size(size);
            let (encoded, index) = encode_trace_with_index(trace);
            self.write_atomic(&self.path_for(kind, &sibling), &encoded);
            self.write_atomic(&self.index_path_for(kind, &sibling), &index.encode());
        }
        let (encoded, index) = encode_trace_with_index(&traces[0]);
        if writable {
            self.write_atomic(&path, &encoded);
            self.write_atomic(&index_path, &index.encode());
        }
        let encoded = self.inject_truncation(kind, encoded);
        // Freshly encoded buffers are well-formed by construction; this
        // pass (negligible next to the simulation that produced them) is
        // the retry bound — if it fails, we report instead of looping.
        match validate_trace(&encoded) {
            Ok(_) => Ok(CacheLoad {
                bytes: encoded,
                index,
                hit: false,
                quarantined,
                quarantined_index,
            }),
            Err(error) => Err(CacheError::CorruptAfterRetry {
                trace: kind.label().to_owned(),
                error,
            }),
        }
    }

    /// Best-effort atomic write: write-to-temp + rename keeps the final
    /// path atomic, so a concurrent reader never observes a half-written
    /// entry and concurrent writers (which produce identical bytes —
    /// simulation is deterministic) race benignly. A read-only target dir
    /// only costs re-simulation next time. A failed write or rename removes
    /// the temp file, which no later write would reuse.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) {
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            std::process::id(),
            next_temp_id(),
        ));
        if fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, path))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Reads a cache entry, honoring injected read failures (a failed
    /// read is a miss — the caller falls through to re-simulation).
    #[allow(unused_variables)]
    fn read_entry(&self, kind: BenchmarkKind, path: &Path) -> Option<Vec<u8>> {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if faults.read_should_fail(kind.label()) {
                return None;
            }
        }
        fs::read(path).ok()
    }

    /// Applies an injected byte truncation to a loaded buffer (identity
    /// without the `fault-inject` feature or an attached injector).
    #[allow(unused_variables, unused_mut, clippy::let_and_return)]
    fn inject_truncation(&self, kind: BenchmarkKind, mut bytes: Bytes) -> Bytes {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            if let Some(offset) = faults.load_truncation(kind.label()) {
                bytes = bytes.slice(..offset.min(bytes.len()));
            }
        }
        bytes
    }
}

/// Quarantines a corrupt cache entry: renames it to `<entry>.corrupt` so
/// the bad bytes stay inspectable and the path is free for the repaired
/// entry. A second corruption of the same entry must not overwrite the
/// first post-mortem (`fs::rename` clobbers on Linux), so when
/// `<entry>.corrupt` already exists the rename targets the first free
/// numbered suffix — `<entry>.corrupt.1`, `.corrupt.2`, … — and gives up
/// past a bounded probe rather than destroy prior evidence. Best-effort —
/// a concurrent quarantine of the same entry (or a read-only directory)
/// loses the rename race benignly.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut base = path.as_os_str().to_owned();
    base.push(".corrupt");
    let base = PathBuf::from(base);
    let mut target = base.clone();
    let mut suffix = 0u32;
    while target.exists() {
        suffix += 1;
        if suffix > 999 {
            // Something is churning out corrupt entries faster than anyone
            // can inspect them; refuse to pick suffix 1000 (and beyond)
            // rather than scan the namespace forever.
            return None;
        }
        target = PathBuf::from({
            let mut numbered = base.as_os_str().to_owned();
            numbered.push(format!(".{suffix}"));
            numbered
        });
    }
    fs::rename(path, &target).ok().map(|()| target)
}

/// A process-unique suffix for cache temp files so concurrent misses in
/// the same process never share a temp path.
fn next_temp_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Simulates one benchmark to completion at `params`' interval size:
/// [`simulate_sizes`] with that one size, so every cached trace is
/// recorded by one path.
pub fn simulate_one(kind: BenchmarkKind, params: &SuiteParams) -> RecordedTrace {
    simulate_sizes(kind, params, &[params.workload.interval_size]).swap_remove(0)
}

/// Simulates one benchmark once and cuts its block stream at each of
/// `sizes` (instructions per interval): entry `i` equals [`simulate_one`]
/// at `params` with interval size `sizes[i]`. Interval size only decides
/// where an interval closes ([`OpenInterval`]), so the one simulation
/// serves every size.
///
/// # Panics
///
/// Panics if a size is zero.
pub fn simulate_sizes(
    kind: BenchmarkKind,
    params: &SuiteParams,
    sizes: &[u64],
) -> Vec<RecordedTrace> {
    assert!(
        sizes.iter().all(|&s| s > 0),
        "interval size must be positive"
    );
    let mut sim = kind.build(&params.workload).simulate(&params.workload);
    let mut cuts: Vec<Cut> = sizes.iter().map(|_| Cut::default()).collect();
    while let Some((event, cycles, metrics)) = sim.next_block() {
        for (cut, &size) in cuts.iter_mut().zip(sizes) {
            cut.events.push(event);
            if cut.open.add(event, cycles, &metrics, size) {
                cut.close();
            }
        }
    }
    cuts.into_iter()
        .map(|mut cut| {
            cut.close();
            cut.trace
        })
        .collect()
}

/// One interval size's recording in [`simulate_sizes`]: the open
/// interval, its events so far, and the intervals already closed.
#[derive(Default)]
struct Cut {
    open: OpenInterval,
    events: Vec<BranchEvent>,
    trace: RecordedTrace,
}

impl Cut {
    /// Closes the open interval into the trace (nothing if it is empty).
    fn close(&mut self) {
        if let Some(summary) = self.open.close(self.trace.len() as u64) {
            self.trace.intervals.push(RecordedInterval {
                events: std::mem::take(&mut self.events),
                summary,
            });
        }
    }
}

/// A process-shared cache location for tests: all figure tests reuse the
/// same quick-suite traces instead of re-simulating per test. Safe because
/// cache file names embed the full parameter fingerprint and simulation is
/// deterministic (concurrent writers produce identical bytes).
pub fn test_cache() -> TraceCache {
    TraceCache::new(std::env::temp_dir().join("tpcp-shared-test-cache"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> SuiteParams {
        SuiteParams {
            workload: WorkloadParams {
                length_scale: 0.01,
                ..Default::default()
            },
        }
    }

    #[test]
    fn fingerprint_distinguishes_params() {
        let a = SuiteParams::default();
        let b = SuiteParams::quick();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-test-{}", std::process::id()));
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let first = cache.load_or_simulate(BenchmarkKind::GzipGraphic, &params);
        let second = cache.load_or_simulate(BenchmarkKind::GzipGraphic, &params);
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_agree_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let mut traces: Vec<Option<RecordedTrace>> = (0..4).map(|_| None).collect();
        std::thread::scope(|scope| {
            for slot in traces.iter_mut() {
                let cache = &cache;
                let params = &params;
                scope.spawn(move || {
                    *slot = Some(cache.load_or_simulate(BenchmarkKind::Mcf, params));
                });
            }
        });
        let first = traces[0].as_ref().unwrap();
        assert!(traces.iter().all(|t| t.as_ref().unwrap() == first));
        // Every temp file was either renamed into place or cleaned up.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        // The cached entry decodes cleanly after the race.
        assert_eq!(&cache.load_or_simulate(BenchmarkKind::Mcf, &params), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_resimulated() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-corrupt-{}", std::process::id()));
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let good = cache.load_or_simulate(BenchmarkKind::PerlDiffmail, &params);
        // Corrupt the file.
        let path = cache.path_for(BenchmarkKind::PerlDiffmail, &params);
        std::fs::write(&path, b"garbage").unwrap();
        let again = cache.load_or_simulate(BenchmarkKind::PerlDiffmail, &params);
        assert_eq!(good, again);
        // The corrupt bytes were quarantined for post-mortem, not destroyed.
        let evidence = PathBuf::from(format!("{}.corrupt", path.display()));
        assert_eq!(std::fs::read(&evidence).unwrap(), b"garbage");
        // The repaired entry is valid: a third load hits the cache cleanly.
        assert_eq!(
            cache.load_or_simulate(BenchmarkKind::PerlDiffmail, &params),
            good
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantine_preserves_every_post_mortem() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-requar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::PerlDiffmail;
        let good = cache.load_or_simulate(kind, &params);
        let path = cache.path_for(kind, &params);

        // First corruption: quarantined under the plain `.corrupt` name.
        std::fs::write(&path, b"first corruption").unwrap();
        assert_eq!(cache.load_or_simulate(kind, &params), good);
        let first = PathBuf::from(format!("{}.corrupt", path.display()));
        assert_eq!(std::fs::read(&first).unwrap(), b"first corruption");

        // Second and third corruptions: the plain name is taken, so the
        // rename picks the first free numbered suffix — never clobbering
        // earlier evidence.
        std::fs::write(&path, b"second corruption").unwrap();
        assert_eq!(cache.load_or_simulate(kind, &params), good);
        std::fs::write(&path, b"third corruption").unwrap();
        assert_eq!(cache.load_or_simulate(kind, &params), good);

        assert_eq!(std::fs::read(&first).unwrap(), b"first corruption");
        let second = PathBuf::from(format!("{}.corrupt.1", path.display()));
        assert_eq!(std::fs::read(&second).unwrap(), b"second corruption");
        let third = PathBuf::from(format!("{}.corrupt.2", path.display()));
        assert_eq!(std::fs::read(&third).unwrap(), b"third corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_written_on_miss_and_trusted_on_hit() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-idx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::Gcc166;

        let miss = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(!miss.hit);
        let index_path = cache.index_path_for(kind, &params);
        assert!(index_path.exists(), "miss persists the sidecar");

        let hit = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(hit.hit);
        assert_eq!(hit.index, miss.index, "sidecar round-trips the index");
        assert_eq!(hit.bytes, miss.bytes);
        hit.index.validate(&hit.bytes).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sidecar_is_rebuilt_on_hit() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-reidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::Ammp;

        let miss = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        let index_path = cache.index_path_for(kind, &params);
        std::fs::remove_file(&index_path).unwrap();

        // A pre-index cache entry still hits; the index is rebuilt from
        // the payload and re-persisted.
        let hit = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(hit.hit);
        assert!(hit.quarantined.is_none() && hit.quarantined_index.is_none());
        assert_eq!(hit.index, miss.index);
        assert!(index_path.exists(), "rebuilt sidecar was re-persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sidecar_quarantines_pair_and_converges() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-idxq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::GccScilab;

        let fresh = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        let payload_path = cache.path_for(kind, &params);
        let index_path = cache.index_path_for(kind, &params);

        // Flip one byte in the middle of the sidecar: decode must fail
        // its self-checksum, and the load must quarantine BOTH files and
        // converge after the single re-simulation.
        let mut sidecar = std::fs::read(&index_path).unwrap();
        let mid = sidecar.len() / 2;
        sidecar[mid] ^= 0x40;
        std::fs::write(&index_path, &sidecar).unwrap();

        let repaired = cache
            .try_load_bytes_or_simulate(kind, &params)
            .expect("quarantine + one re-simulation converges");
        assert!(!repaired.hit);
        let q_payload = repaired.quarantined.expect("payload quarantined");
        let q_index = repaired.quarantined_index.expect("sidecar quarantined");
        assert!(q_payload.to_string_lossy().ends_with(".tpcptrc.corrupt"));
        assert!(q_index.to_string_lossy().ends_with(".tpcpidx.corrupt"));
        assert_eq!(
            std::fs::read(&q_index).unwrap(),
            sidecar,
            "corrupt sidecar bytes preserved as evidence"
        );
        assert_eq!(repaired.bytes, fresh.bytes, "repair is bit-identical");
        assert_eq!(repaired.index, fresh.index);

        // Converged: the rewritten pair loads cleanly.
        let healed = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(healed.hit);
        assert!(healed.quarantined.is_none() && healed.quarantined_index.is_none());
        assert!(payload_path.exists() && index_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_from_wrong_payload_is_rejected() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-xidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();

        let a = cache
            .try_load_bytes_or_simulate(BenchmarkKind::Mcf, &params)
            .unwrap();
        cache
            .try_load_bytes_or_simulate(BenchmarkKind::Galgel, &params)
            .unwrap();

        // Transplant Galgel's (structurally valid) sidecar onto Mcf: the
        // payload tie must reject it and the pair must re-simulate.
        std::fs::copy(
            cache.index_path_for(BenchmarkKind::Galgel, &params),
            cache.index_path_for(BenchmarkKind::Mcf, &params),
        )
        .unwrap();
        let repaired = cache
            .try_load_bytes_or_simulate(BenchmarkKind::Mcf, &params)
            .unwrap();
        assert!(repaired.quarantined.is_some() && repaired.quarantined_index.is_some());
        assert_eq!(repaired.index, a.index);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_under_the_pre_format_name_is_never_opened() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-oldname-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::Mcf;

        // A payload and a sidecar that vouches for it, under the names
        // used before the format joined them.
        let (payload, index) = encode_trace_with_index(&RecordedTrace::default());
        let sidecar = index.encode();
        let stem = dir.join(format!(
            "{}-{}",
            kind.label().replace('/', "_"),
            params.fingerprint()
        ));
        let old_payload = stem.with_extension("tpcptrc");
        let old_index = stem.with_extension("tpcpidx");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&old_payload, &payload).unwrap();
        std::fs::write(&old_index, &sidecar).unwrap();

        let load = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(!load.hit, "the old-name pair must not be a hit");
        assert!(load.quarantined.is_none() && load.quarantined_index.is_none());
        assert_ne!(load.bytes, payload);
        assert_eq!(std::fs::read(&old_payload).unwrap(), payload.to_vec());
        assert_eq!(std::fs::read(&old_index).unwrap(), sidecar.to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_load_reports_the_quarantined_path() {
        let dir = std::env::temp_dir().join(format!("tpcp-cache-qrtn-{}", std::process::id()));
        let cache = TraceCache::new(&dir);
        let params = tiny_params();
        let kind = BenchmarkKind::Galgel;

        // A miss simulates; no quarantine involved.
        let fresh = cache
            .try_load_bytes_or_simulate(kind, &params)
            .expect("miss simulates");
        assert!(fresh.quarantined.is_none());

        std::fs::write(cache.path_for(kind, &params), b"not a trace").unwrap();
        let repaired = cache
            .try_load_bytes_or_simulate(kind, &params)
            .expect("quarantine + one re-simulation converges");
        let evidence = repaired.quarantined.expect("corrupt entry was quarantined");
        assert!(
            evidence.to_string_lossy().ends_with(".corrupt"),
            "{evidence:?}"
        );
        assert!(evidence.exists());
        assert_eq!(repaired.bytes, fresh.bytes, "repair is bit-identical");

        // The repaired entry loads cleanly afterwards.
        let healed = cache.try_load_bytes_or_simulate(kind, &params).unwrap();
        assert!(healed.quarantined.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
