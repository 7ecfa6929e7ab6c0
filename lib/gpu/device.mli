(** The whole simulated GPU: launch kernels, accumulate statistics.

    A launch proceeds in two phases. Phase 1 (functional) partitions the
    grid into warps and runs the kernel body once per warp through
    {!Warp_ctx}, mutating the simulated heap and recording instruction
    traces — values never depend on timing, so traces are exact. Phase 2
    ({!Sm.run_fused}) replays the sealed traces through the timing model.
    Kernels must be data-race-free across warps within a launch (the
    usual CUDA contract); phase 1 executes warps in grid order.

    {b Launch pipelining.} Phase 2 of launch [k] reads only launch [k]'s
    sealed traces and the replay-side state (memory path, counters,
    timelines, telemetry); phase 1 of launch [k+1] reads and writes only
    the caller's side (heap, scratch trace, interning tallies, sanitizer,
    translation model to attach). So when a {!Repro_util.Spare_cores}
    token is free, {!launch} hands phase 2 to a {e replay lane} — a
    second domain that replays launches in order while the caller emits
    the next one — and returns. At most one launch waits behind the one
    replaying; a further {!launch} blocks until the lane takes it. The
    lane exits (giving its token back) when it runs out of work, so a
    device dropped without being read leaks no domain. Without a free
    token, phase 2 runs on the caller, as if no lane existed. Either way
    every counter, row and event is the same: the lane replays the same
    traces in the same order, each with the translation model and
    sanitizer delta of its own emission.

    {!sync} and every function that reads replay-side state ({!stats},
    {!kernel_timeline}, {!window_timeline}, {!telemetry_dump},
    {!retain_traces}, {!retained_traces}, {!reset_stats}) first waits
    for the lane to finish. An exception raised by a kernel (phase 1)
    lets the lane finish, then propagates from {!launch}; one raised in
    replay propagates from the next {!launch} (after its emission) or
    reader. *)

type t

val create :
  ?config:Config.t -> ?san:Repro_san.Checker.t ->
  ?telemetry:Telemetry.config ->
  heap:Repro_mem.Page_store.t -> unit -> t
(** When [san] is given, every launch threads it through the warp
    contexts and folds the checker's per-launch violation delta into that
    launch's counters (so the timeline invariant below still holds).

    Phase 1 emits every warp through one reusable scratch trace, then
    seals it: memory records are coalesced into sectors and identical
    instruction streams are hash-consed per launch ({!Trace.Intern}).
    Phase 2 replays every launch through {!Sm.run_fused}, with the
    translation model and telemetry (if any) attached; telemetry
    observes only.

    [telemetry] opts into cycle-resolved instrumentation, allocated once
    here: windowed counter sampling ({!window_timeline}) and/or the
    event ring behind {!telemetry_dump}. A disabled config (the
    default, or {!Telemetry.off}) records nothing. *)

val config : t -> Config.t

val interning_tallies : t -> int * int * int * int
(** [(sealed, unique, sealed_instrs, unique_instrs)] — warp instruction
    streams sealed through the interning pools since the last
    {!reset_stats}, how many were distinct, and the dynamic warp
    instructions behind each. All zero before the first launch. *)

val dedup_ratio : t -> float
(** [sealed /. unique] streams ([1.] before any launch) — the interning
    compression factor. *)

val heap : t -> Repro_mem.Page_store.t

val set_vm : t -> Repro_vm.Vm.t option -> unit
(** Attach (or detach) an address-translation model for the launches
    that follow; see [Mem_path.set_vm]. The model is recorded here and
    travels with each launch to its replay, so launches already emitted
    keep the model they were emitted under. The runtime rebuilds and
    re-attaches the model when the heap layout changes between
    launches. *)

val vm : t -> Repro_vm.Vm.t option

val launch : t -> n_threads:int -> (Warp_ctx.t -> unit) -> unit
(** Run a kernel over a 1-D grid of [n_threads] threads (the last warp may
    be partial). Raises [Invalid_argument] when [n_threads <= 0]. *)

val sync : t -> unit
(** Wait until every launch so far has replayed (a no-op without a
    replay lane); re-raises a replay failure. The readers below do this
    themselves. *)

val stats : t -> Stats.t
(** Counters accumulated since creation or the last {!reset_stats},
    including total cycles across launches. The value is the device's
    live accumulator: read it before the next {!launch}, or copy it. *)

val kernel_timeline : t -> Stats.t list
(** One counter snapshot per kernel launch since creation or the last
    {!reset_stats}, in launch order — the simulator analogue of an NVProf
    timeline. Each entry holds only that launch's contribution (its
    [cycles] is the launch duration); accumulating the entries in order
    reproduces {!stats} exactly, float counters included. *)

val window_timeline : t -> Stats.t array list
(** When windowed sampling is on: one array of per-window counter rows
    per launch (in launch order; windows in time order). Folding a
    launch's rows with [Stats.add] reproduces that launch's
    {!kernel_timeline} delta exactly — float counters included — and the
    rows' [cycles] sum to the launch duration bit-for-bit. Empty unless
    the device was created with a sampling [telemetry] config. *)

val sample_window : t -> int option
(** The sampling window in cycles, when windowed sampling is on. *)

val telemetry_dump : t -> Telemetry.dump option
(** Snapshot of the event ring (plus per-launch kernel spans on the
    cumulative time axis), when tracing is on. Rendered to Chrome
    trace-event JSON by [Repro_obs.Tracer]. *)

val reset_stats : t -> unit
(** Also resets the persistent L2 tag state, so timed regions start
    cold and runs are order-independent. Clears the kernel timeline,
    the window timeline and the event ring. *)

val launches : t -> int
(** Number of kernel launches since the last reset. *)

val retain_traces : t -> bool -> unit
(** When enabled, every subsequent launch's per-warp traces are kept (in
    launch order) for offline replay — the hook [bench/sim_bench.exe]
    uses to re-time real workload traces without re-running the
    functional phase. Disabling drops anything retained. Off by
    default; retention costs memory proportional to the traces. *)

val retained_traces : t -> Trace.sealed array list
(** Retained launches in launch order (empty unless {!retain_traces} is
    on). Cleared by {!reset_stats}. *)
