// Package serve is the crash-tolerant long-running simulation service: a
// supervised job queue over the scenario catalog.
//
// A Server accepts JobSpec submissions (a catalog name plus parameter
// overrides, the same knobs `maficsim` exposes as flags) and runs them on a
// bounded worker pool. The contract:
//
//   - A full queue sheds new submissions explicitly (ErrQueueFull → 503)
//     rather than queueing unboundedly. A queued job that is canceled
//     leaves the queue at once and holds no slot.
//   - A failed run fails the job; it is not retried, because it would fail
//     the same way. A run is deterministic and does no I/O, so the only
//     errors it returns besides an interruption are ones its scenario
//     causes.
//   - A per-job wall-clock timeout fails the job terminally — timed out,
//     not hung.
//   - Cancel, drain and timeout stop a running job through
//     experiment.ControlOptions.Interrupt, which the run polls every 10
//     simulated milliseconds. Drain (SIGTERM or POST /drain) leaves the
//     stopped job's manifest marked running, so the next process runs it
//     again.
//   - On startup the server scans its store and re-enqueues every queued or
//     running job, to run from time zero.
//
// # A job is its manifest: durability without snapshots
//
// A job's durable state is two files in its directory: job.json, its
// manifest (the spec and the state), written on every state transition, and
// result.json, written once when the run finishes and before the manifest
// says completed. Both are written with
// checkpoint.WriteFileAtomic (same-directory temp file, fsync, rename,
// directory fsync), so a crash leaves each either whole or as it was.
// GET /jobs/{id}/result (Server.ResultBytes) serves result.json's bytes; job
// status (JobInfo) carries no copy of the result. A job found finished under
// a running manifest (the crash fell between the two writes) is adopted as
// completed, not run again.
//
// Why that is enough (ROADMAP item 25(a)): the engine is deterministic, so a
// job run again from its scenario reaches the result an uninterrupted run
// writes, byte for byte. The service used to snapshot every running job
// every 100 simulated ms into a rotated store and, after a crash, a retry or
// a drain, resume from the newest valid snapshot. Restore is decided for
// deletion (ROADMAP item 17): a resume will replay the run from time zero to
// the snapshot's time, which costs what the whole run costs (measured at
// -cpu 1: a replayed resume from 90 % took 84.7 ms on table2, the run
// 87.3 ms; 537 ms and 521 ms on stress-1k). Snapshots would then save no
// work after a crash, while every job pays their capture, encoding and
// fsyncs — 29 snapshots per full table2 job. So the service writes none.
// The snapshot writes were also the only failures a second run of a job
// could get past, so the retries went with them.
//
// What is lost:
//   - A crash or a drain repeats the whole job, where a resume repeated at
//     most two checkpoint intervals.
//   - A failed run is final. The service has no retry loop, no backoff and
//     no flags for either, and neither JobInfo nor the manifest counts the
//     runs of a job: there is one per process that picks the job up.
//   - A snapshot written by a build whose run differs was refused on resume,
//     and the job fell back to a fresh start. With no snapshot, nothing on the
//     recovery path compares two builds' runs; that check stays with the
//     experiment package's kill-and-resume suite and `make result-diff`.
//
// A store left by an older build may hold snapshot files and temp-file
// leftovers in a job directory. Recovery reads neither: the job runs again
// from its manifest, and the files stay where they are.
package serve
