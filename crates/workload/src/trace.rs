//! Workload traces in the spirit of the Grid Workloads Archive.
//!
//! The paper (C16) names the authors' Grid Workload Archive \[139\] as a key
//! reproducibility instrument: real traces plus tools to analyze them. This
//! module defines a GWA-like record format, JSON-lines serialization, and
//! trace-level statistics.

use crate::task::{Job, JobId, JobKind, Task, TaskId, UserId};
use mcs_infra::resource::ResourceVector;
use mcs_simcore::codec;
use mcs_simcore::error::McsError;
use mcs_simcore::metrics::Summary;
use mcs_simcore::time::{SimDuration, SimTime};

/// One trace row: a job observation in GWA style (submit time, runtime,
/// processor count, user).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Job identifier.
    pub job_id: u64,
    /// Submission instant, seconds since trace start.
    pub submit_secs: f64,
    /// Observed runtime, seconds.
    pub runtime_secs: f64,
    /// Processors requested.
    pub cpus: f64,
    /// Memory requested, GiB.
    pub memory_gb: f64,
    /// Submitting user.
    pub user: u32,
    /// Workload family tag.
    pub kind: JobKind,
}

mcs_simcore::impl_json!(struct TraceRecord {
    job_id, submit_secs, runtime_secs, cpus, memory_gb, user, kind,
});

impl TraceRecord {
    /// Converts the record into a single-task [`Job`].
    pub fn to_job(&self) -> Job {
        let id = JobId(self.job_id);
        let req = ResourceVector::new(self.cpus.max(0.01), self.memory_gb.max(0.0));
        let demand = self.runtime_secs.max(0.0) * self.cpus.max(0.01);
        Job {
            id,
            user: UserId(self.user),
            kind: self.kind,
            submit: SimTime::ZERO + SimDuration::from_secs_f64(self.submit_secs.max(0.0)),
            tasks: vec![Task::independent(TaskId(self.job_id), id, demand, req)],
        }
    }
}

/// An ordered collection of trace records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

mcs_simcore::impl_json!(struct Trace { records });

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from records, sorting by submission time.
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by(|a, b| {
            a.submit_secs
                .partial_cmp(&b.submit_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.job_id.cmp(&b.job_id))
        });
        Trace { records }
    }

    /// Appends a record (kept sorted lazily — call [`Trace::from_records`]
    /// semantics via re-sorting on read APIs that need order).
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes to JSON-lines (one record per line). Encoding is
    /// deterministic, so identical traces yield identical bytes.
    ///
    /// # Errors
    /// Infallible today (kept fallible for format evolution).
    pub fn to_jsonl(&self) -> Result<Vec<u8>, McsError> {
        let mut buf = Vec::with_capacity(self.records.len() * 96);
        for r in &self.records {
            buf.extend_from_slice(codec::to_string(r).as_bytes());
            buf.push(b'\n');
        }
        Ok(buf)
    }

    /// Parses JSON-lines produced by [`Trace::to_jsonl`] (blank lines are
    /// skipped).
    ///
    /// # Errors
    /// Returns [`McsError::Trace`] naming the first malformed line.
    pub fn from_jsonl(bytes: &[u8]) -> Result<Trace, McsError> {
        let mut records = Vec::new();
        for (idx, line) in bytes.split(|b| *b == b'\n').enumerate() {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let text = std::str::from_utf8(line).map_err(|e| McsError::Trace {
                line: idx + 1,
                message: format!("not UTF-8: {e}"),
            })?;
            let record = codec::from_str::<TraceRecord>(text).map_err(|e| McsError::Trace {
                line: idx + 1,
                message: e.to_string(),
            })?;
            records.push(record);
        }
        Ok(Trace { records })
    }

    /// Converts every record into a single-task job, ordered by submit time.
    pub fn to_jobs(&self) -> Vec<Job> {
        let sorted = Trace::from_records(self.records.clone());
        sorted.records.iter().map(TraceRecord::to_job).collect()
    }

    /// Trace-level statistics, the rows a workload-archive paper reports.
    pub fn stats(&self) -> Option<TraceStats> {
        if self.records.is_empty() {
            return None;
        }
        let runtimes: Vec<f64> = self.records.iter().map(|r| r.runtime_secs).collect();
        let cpus: Vec<f64> = self.records.iter().map(|r| r.cpus).collect();
        let mut submits: Vec<f64> = self.records.iter().map(|r| r.submit_secs).collect();
        submits.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let gaps: Vec<f64> = submits.windows(2).map(|w| w[1] - w[0]).collect();
        let users = {
            let mut u: Vec<u32> = self.records.iter().map(|r| r.user).collect();
            u.sort_unstable();
            u.dedup();
            u.len()
        };
        Some(TraceStats {
            jobs: self.records.len(),
            users,
            span_secs: submits.last().copied().unwrap_or(0.0) - submits.first().copied().unwrap_or(0.0),
            runtime: Summary::of(&runtimes)?,
            cpus: Summary::of(&cpus)?,
            interarrival: Summary::of(&gaps),
            total_core_seconds: self
                .records
                .iter()
                .map(|r| r.runtime_secs * r.cpus)
                .sum(),
        })
    }
}

/// Aggregate statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of distinct users.
    pub users: usize,
    /// Seconds between first and last submission.
    pub span_secs: f64,
    /// Runtime distribution.
    pub runtime: Summary,
    /// Processor-count distribution.
    pub cpus: Summary,
    /// Inter-arrival distribution (`None` for single-job traces).
    pub interarrival: Option<Summary>,
    /// Total consumed core-seconds.
    pub total_core_seconds: f64,
}

mcs_simcore::impl_json!(struct TraceStats {
    jobs, users, span_secs, runtime, cpus, interarrival, total_core_seconds,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, submit: f64, runtime: f64, cpus: f64, user: u32) -> TraceRecord {
        TraceRecord {
            job_id: id,
            submit_secs: submit,
            runtime_secs: runtime,
            cpus,
            memory_gb: 4.0,
            user,
            kind: JobKind::BagOfTasks,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let t = Trace::from_records(vec![rec(1, 0.0, 100.0, 4.0, 0), rec(2, 5.0, 50.0, 2.0, 1)]);
        let bytes = t.to_jsonl().unwrap();
        let back = Trace::from_jsonl(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_jsonl_skips_blank_lines() {
        let t = Trace::from_records(vec![rec(1, 0.0, 1.0, 1.0, 0)]);
        let mut bytes = t.to_jsonl().unwrap();
        bytes.extend_from_slice(b"\n\n  \n");
        let back = Trace::from_jsonl(&bytes).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_line_is_error() {
        assert!(Trace::from_jsonl(b"{not json}\n").is_err());
    }

    #[test]
    fn from_records_sorts_by_submit() {
        let t = Trace::from_records(vec![rec(2, 9.0, 1.0, 1.0, 0), rec(1, 3.0, 1.0, 1.0, 0)]);
        assert_eq!(t.records()[0].job_id, 1);
        assert_eq!(t.records()[1].job_id, 2);
    }

    #[test]
    fn record_to_job() {
        let r = rec(7, 12.0, 60.0, 4.0, 3);
        let job = r.to_job();
        assert_eq!(job.id, JobId(7));
        assert_eq!(job.user, UserId(3));
        assert_eq!(job.submit, SimTime::from_secs(12));
        assert_eq!(job.tasks.len(), 1);
        assert_eq!(job.tasks[0].demand_core_seconds, 240.0);
        assert_eq!(job.tasks[0].req.cpu_cores, 4.0);
    }

    #[test]
    fn stats_hand_example() {
        let t = Trace::from_records(vec![
            rec(1, 0.0, 100.0, 2.0, 0),
            rec(2, 10.0, 200.0, 4.0, 0),
            rec(3, 30.0, 300.0, 6.0, 1),
        ]);
        let s = t.stats().unwrap();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.users, 2);
        assert_eq!(s.span_secs, 30.0);
        assert!((s.runtime.mean - 200.0).abs() < 1e-12);
        assert!((s.total_core_seconds - (200.0 + 800.0 + 1800.0)).abs() < 1e-12);
        let ia = s.interarrival.unwrap();
        assert!((ia.mean - 15.0).abs() < 1e-12);
        assert!(Trace::new().stats().is_none());
    }
}
