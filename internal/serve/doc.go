// Package serve is the crash-tolerant long-running simulation service built
// on the snapshot layer: a supervised job queue over the scenario catalog.
//
// A Server accepts JobSpec submissions (a catalog name plus parameter
// overrides, the same knobs `maficsim` exposes as flags), runs them on a
// bounded worker pool, and auto-checkpoints every running job on a
// configurable simulated-time interval into a rotated on-disk snapshot store
// (checkpoint.Store: atomic writes, keep-last-K). The durability contract:
//
//   - A full queue sheds new submissions explicitly (ErrQueueFull → 503)
//     rather than queueing unboundedly.
//   - Snapshots are written behind the run. The control loop of
//     experiment.RunControlled captures each checkpoint on the run's
//     goroutine and hands its encoding and the attempt's Save — the durable
//     write, the unchanged checkpoint.Store.Save: temp + fsync + rename +
//     dir-fsync, rotation after the new file is durable — to a helper
//     goroutine, and the simulation goes on while it lands. Exactly one save
//     is in flight; the next boundary waits for it and fails the attempt with
//     its error, and the run never returns — completed, failed, canceled,
//     drained or timed out — with a save pending. A job's snapshot count,
//     last checkpoint and Metrics.SnapshotsWritten move only when a file is
//     durable; Metrics.SnapshotWaits and SnapshotWaitMs add up the waits the
//     loop reports through ControlOptions.Stalled. The price: a kill -9 can
//     lose up to two checkpoint intervals, the one being simulated and the
//     one being written, where a synchronous save lost one.
//   - A transient run failure is retried with bounded doubling backoff,
//     resuming from the newest snapshot — which, the failed run having
//     waited for its last save, is the last one the run handed over — so a
//     retry repeats at most one checkpoint interval. (A failed snapshot write
//     is seen one boundary late; that retry repeats up to two.)
//   - A per-job wall-clock timeout fails the job terminally — timed out,
//     not hung, and not retried.
//   - Drain (SIGTERM or POST /drain) pauses every in-flight job at the next
//     checkpoint boundary, saves one final snapshot, and leaves the job's
//     manifest marked running so the next process resumes it. A drain
//     ordered while a snapshot is being written pauses at the boundary after
//     that snapshot's, still within one interval of the order.
//   - On startup the server scans its store, re-enqueues every queued or
//     running job, and resumes each from its newest snapshot that actually
//     validates — falling back loudly past torn or bit-flipped files.
//
// A finished job's result lives in one place, its result.json, written
// atomically before the manifest says completed. GET /jobs/{id}/result
// (Server.ResultBytes) serves those bytes; job status (JobInfo) carries no
// copy of the result, and recovery reads the file only to tell whether a job
// under a running manifest had already finished.
//
// Because snapshots restore bit-identically (pinned by the experiment
// package's kill-and-resume suite and this package's recovery tests), a job
// that lived through any number of crashes, retries and restarts produces
// exactly the bytes an uninterrupted run would have written.
package serve
