//! The job stream through a [`MappingService`](crate::MappingService),
//! tested end to end: every admitted job leaves the admission queue for
//! a free worker and comes back, exactly once, as the stored outcome of
//! its own ID. Admission stays bounded and never blocks, closed intake
//! still finishes its backlog, a drop joins the workers only after they
//! drain, `wait` parks until the result lands, and the trace context a
//! job is admitted with is the one its worker records under.

mod tests {
    use crate::intake::tests::{service, spec, Gate, Gated};
    use crate::intake::{result_fingerprint, JobOutcome, JobSpec, MappingService, PollReply};
    use crate::proto::{ErrorCode, Priority};
    use circuit::Circuit;
    use qlosure::{Mapper, MappingResult, QlosureMapper};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use topology::CouplingGraph;

    /// How long any one step may take before the test fails instead of
    /// hanging.
    const LONG: Duration = Duration::from_secs(60);

    /// Submits a job whose mapper waits on `gate`, then waits until the
    /// single worker has picked it up, so the worker stays held until
    /// the test opens the gate.
    fn pin(svc: &MappingService, gate: &Gate) -> u64 {
        let id = svc
            .submit(JobSpec {
                mapper: Arc::new(Gated(gate.0.clone())),
                ..spec(Priority::Batch, 10, 1)
            })
            .unwrap();
        let deadline = Instant::now() + LONG;
        while !matches!(svc.poll(id), PollReply::Pending { running: true }) {
            assert!(Instant::now() < deadline, "no worker picked up job {id}");
            std::thread::yield_now();
        }
        id
    }

    /// The completion seq of a job that must succeed.
    fn seq_of(svc: &MappingService, id: u64) -> u64 {
        match svc.wait(id, LONG) {
            Some(JobOutcome::Done(summary)) => summary.seq,
            other => panic!("job {id} did not finish: {other:?}"),
        }
    }

    /// Counts its runs, then routes like `qlosure`.
    struct Counting(Arc<AtomicUsize>);

    impl Mapper for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
            self.0.fetch_add(1, Ordering::SeqCst);
            QlosureMapper::default().map(circuit, device)
        }
    }

    /// Opens one `job-body` span on the thread that runs it, then routes
    /// like `qlosure`.
    struct Spanning;

    impl Mapper for Spanning {
        fn name(&self) -> &str {
            "spanning"
        }

        fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
            let _body = trace::span("job-body");
            QlosureMapper::default().map(circuit, device)
        }
    }

    #[test]
    fn streamed_jobs_come_back_with_submission_ids() {
        let svc = service(4, 64, 64);
        let specs: Vec<JobSpec> = (0..20).map(|s| spec(Priority::Batch, 5, s)).collect();
        let ids: Vec<u64> = specs
            .iter()
            .map(|job| svc.submit(job.clone()).unwrap())
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>(), "IDs follow submission");
        let mut seqs = Vec::new();
        let mut fingerprints = HashSet::new();
        for (&id, job) in ids.iter().zip(&specs) {
            let Some(JobOutcome::Done(summary)) = svc.wait(id, LONG) else {
                panic!("job {id} must succeed");
            };
            let direct = job.mapper.map(&job.circuit, &job.device);
            assert_eq!(
                summary.fingerprint,
                format!("{:016x}", result_fingerprint(&direct)),
                "job {id} comes back with its own circuit's mapping"
            );
            fingerprints.insert(summary.fingerprint);
            seqs.push(summary.seq);
        }
        assert_eq!(fingerprints.len(), 20, "the 20 circuits map differently");
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (0..20).collect::<Vec<u64>>(),
            "each job completes once"
        );
        let stats = svc.shutdown();
        assert_eq!((stats.submitted, stats.completed), (20, 20));
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let svc = service(1, 2, 8);
        let gate = Gate::default(); // dropped, and so opened, before `svc`
        let pinned = pin(&svc, &gate);
        // The running job has left the admission queue; two more fill it.
        let queued = [
            svc.submit(spec(Priority::Batch, 10, 2)).unwrap(),
            svc.submit(spec(Priority::Interactive, 10, 3)).unwrap(),
        ];
        let (code, message) = svc.submit(spec(Priority::Batch, 10, 4)).unwrap_err();
        assert_eq!(code, ErrorCode::QueueFull);
        assert!(message.contains("capacity 2"), "got: {message}");
        assert!(
            matches!(svc.poll(pinned), PollReply::Pending { running: true }),
            "the reject came back while the worker was still held"
        );
        gate.open();
        for id in [pinned, queued[0], queued[1]] {
            seq_of(&svc, id);
        }
        // With capacity freed, submission works again.
        let again = svc.submit(spec(Priority::Batch, 10, 4)).unwrap();
        seq_of(&svc, again);
        let stats = svc.shutdown();
        assert_eq!(
            (stats.submitted, stats.rejected, stats.completed),
            (4, 1, 4)
        );
    }

    #[test]
    fn closed_engine_rejects_submissions_but_finishes_backlog() {
        let svc = service(1, 8, 8);
        let gate = Gate::default(); // dropped, and so opened, before `svc`
        let pinned = pin(&svc, &gate);
        let queued = svc.submit(spec(Priority::Batch, 10, 2)).unwrap();
        svc.begin_shutdown();
        let (code, _) = svc.submit(spec(Priority::Interactive, 10, 3)).unwrap_err();
        assert_eq!(code, ErrorCode::ShuttingDown);
        assert!(
            matches!(svc.poll(queued), PollReply::Pending { running: false }),
            "closing intake keeps the backlog queued"
        );
        assert_eq!(svc.pending(), 2);
        gate.open();
        assert_eq!([seq_of(&svc, pinned), seq_of(&svc, queued)], [0, 1]);
        let stats = svc.shutdown();
        assert_eq!(
            (stats.submitted, stats.rejected, stats.completed),
            (2, 1, 2)
        );
        assert_eq!(svc.pending(), 0, "closed and drained: nothing in flight");
    }

    #[test]
    fn dropping_with_queued_jobs_joins_workers_and_loses_no_work() {
        // The graceful-shutdown contract of a plain drop: intake closes,
        // every admitted job still runs exactly once, and the workers are
        // joined with no job left behind in a queue or a thread.
        for workers in [1, 4] {
            let runs = Arc::new(AtomicUsize::new(0));
            let svc = service(workers, 64, 64);
            for s in 0..24 {
                svc.submit(JobSpec {
                    mapper: Arc::new(Counting(runs.clone())),
                    ..spec(Priority::Batch, 5, s)
                })
                .unwrap();
            }
            let (dropped, done) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                drop(svc);
                let _ = dropped.send(());
            });
            done.recv_timeout(LONG)
                .expect("the drop drains the queue and joins the workers");
            assert_eq!(
                runs.load(Ordering::SeqCst),
                24,
                "workers={workers}: every admitted job runs exactly once"
            );
            assert_eq!(
                Arc::strong_count(&runs),
                1,
                "workers={workers}: no job outlives the drop"
            );
        }
    }

    #[test]
    fn recv_blocks_until_a_result_lands() {
        let svc = service(1, 8, 8);
        let gate = Gate::default(); // dropped, and so opened, before `svc`
        let pinned = pin(&svc, &gate);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| svc.wait(pinned, LONG));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished(), "wait parks while the job runs");
            gate.open();
            let outcome = waiter.join().unwrap();
            assert!(matches!(outcome, Some(JobOutcome::Done(ref s)) if s.verified));
        });
        svc.shutdown();
    }

    #[test]
    fn submitter_trace_context_reaches_the_worker() {
        // `submit` gives each job its own tracer; the worker that runs it
        // installs that context, so the spans a mapper opens land in the
        // job's own tree under its root. A context installed on the
        // submitting thread stays on that thread.
        let svc = service(1, 8, 8);
        let spanning = |trace| JobSpec {
            mapper: Arc::new(Spanning),
            trace,
            ..spec(Priority::Interactive, 10, 1)
        };
        let foreign = trace::Tracer::new(42, 64);
        let ids = {
            let ctx = trace::Ctx::new(foreign.clone(), trace::ROOT_SPAN);
            let _ctx = trace::set_ctx(&ctx);
            [true, true, false].map(|traced| svc.submit(spanning(traced)).unwrap())
        };
        for id in ids {
            seq_of(&svc, id);
        }
        let mut trace_ids = HashSet::new();
        for id in &ids[..2] {
            let (trace_id, spans) = svc.trace(*id).expect("requested trace is retained");
            let bodies: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "job-body").collect();
            assert_eq!(bodies.len(), 1, "job {id} records its own body span once");
            assert_eq!(bodies[0].parent, trace::ROOT_SPAN);
            trace_ids.insert(trace_id);
        }
        assert_eq!(trace_ids.len(), 2, "each job traces under its own ID");
        assert!(
            svc.trace(ids[2]).is_none(),
            "an untraced fast job keeps none"
        );
        assert!(
            foreign.snapshot().is_empty(),
            "the submitting thread's context records nothing"
        );
        svc.shutdown();
    }
}
