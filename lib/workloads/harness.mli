(** Build-and-measure driver: runs one workload under one technique and
    collects everything the figures need.

    Setup (allocation, initialization) is untimed; counters are reset at
    the measurement boundary, then all compute iterations run, exactly as
    the paper reports kernel time excluding initialization. *)

type run = {
  workload : string;          (** Qualified name. *)
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t;
      (** Allocator family the run used (the technique's default unless
          overridden via [params.alloc]). *)
  cycles : float;
  stats : Repro_gpu.Stats.t;  (** Snapshot, detached from the device. *)
  kernel_stats : Repro_gpu.Stats.t list;
  (** Per-kernel-launch counter deltas inside the measured region, in
      launch order. Accumulating them with [Stats.add] into a fresh
      [Stats.t] reproduces [stats] exactly (float fields bit-for-bit),
      which [Repro_obs.Profile.consistent] checks. *)
  window : int option;
  (** Sampling window in cycles when the run's params enabled it. *)
  kernel_windows : Repro_gpu.Stats.t array list;
  (** Per-launch window rows (snapshots) when windowed sampling was on;
      folding a launch's rows reproduces its [kernel_stats] delta
      exactly (see {!Repro_gpu.Device.window_timeline}). Empty
      otherwise. *)
  trace : Repro_gpu.Telemetry.dump option;
  (** Event-ring snapshot when tracing was on. *)
  checksum : int;             (** Heap checksum (cross-technique equal). *)
  result : int;               (** Workload-level result (ditto). *)
  n_objects : int;
  n_types : int;
  n_vfuncs : int;             (** Total vtable slots. *)
  vfunc_pki : float;
  warp_vcalls : int;
  alloc_stats : Repro_core.Allocator.stats;
}

val run : Workload.t -> Workload.params -> run

val run_techniques :
  Workload.t -> Workload.params -> Repro_core.Technique.t list ->
  (Repro_core.Technique.t * run) list
(** Same workload under several techniques (same seed/scale), asserting
    that checksums and results agree across all of them — the paper's
    functional validation. Raises [Failure] on a mismatch. Runs are
    keyed by technique, in argument order; look one up with {!find}. *)

val find :
  (Repro_core.Technique.t * run) list ->
  technique:Repro_core.Technique.t -> run option

val validate_equal : run list -> unit
(** The cross-technique functional check on its own: every run must
    agree with the first on [checksum] and [result]. Raises [Failure]
    naming the offending pair. *)

val digest : run -> string
(** Hex MD5 over the marshalled [(Stats.to_raw stats, checksum, result)]:
    one string that changes when any simulated counter, the heap or the
    workload result does. The frozen per-cell digests in the tests and
    in [BENCH_scale1.json] are this value. *)

val speedup_vs : baseline:run -> run -> float
(** [cycles baseline / cycles run]: >1 means faster than baseline. *)

val normalized_cycles : baseline:run -> run -> float
(** [cycles run / cycles baseline]: normalized runtime, >1 means slower
    than baseline. The inverse view of {!speedup_vs}. *)
