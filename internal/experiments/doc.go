// Package experiments regenerates every table and figure of the paper's
// evaluation (Table 1 and Figures 2-12), plus the ablations, Section 6
// extensions, the scenario matrix, and the adaptively refined axis
// sweeps — 22 keyed experiments in all (see EXPERIMENTS.md for the
// catalog and cmd/figures for the batch driver).
//
// # Determinism contract
//
// Every experiment streams its rows through a RowSink in deterministic
// task order, and the streamed bytes of a deterministic sink (CSV,
// JSONL) are identical for:
//
//   - every Scale.Parallelism value and any goroutine schedule: sweep
//     points are self-contained (each sim.Run derives all randomness
//     from the config seed via sim.SplitSeed), and a reorder buffer
//     (par.ForOrdered) sequences out-of-order worker completions;
//   - every Scale.Shard.Count: rows carry stable global indices (their
//     position in the unsharded stream), shards own indices round-robin
//     (index mod Count), and a Journal loaded with the per-shard JSONL
//     outputs (Journal.Load) writes back the exact unsharded byte
//     stream (Journal.WriteTable);
//   - resumed runs: a Journal checkpoints completed rows under the key
//     (table name, global index), and a run restarted with Scale.Resume
//     replays them — including the full-precision refinement metrics
//     adaptive sweeps rank intervals by — instead of recomputing;
//   - memoized runs: the sim.Arena shared across sweep points hands out
//     only values that are pure functions of their keys, so reuse can
//     never change a row (Scale.NoWorkloadReuse is the A/B control).
//
// Adaptive refinement (refine.go) keeps these guarantees by keying
// every decision exclusively on completed rows: the coarse pass is a
// full barrier, each round bisects a fixed number of intervals chosen
// deterministically from the metric gradients, and under sharding every
// shard evaluates all points (the curve is global state) while emitting
// only the rows it owns.
//
// The regression tests in engine_test.go, shard_test.go and
// journal_test.go pin each clause of this contract.
package experiments
