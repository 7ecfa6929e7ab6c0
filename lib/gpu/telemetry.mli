(** Cycle-resolved telemetry: windowed counter sampling and the event
    ring behind the Chrome-trace exporter.

    Both features are opt-in and sized up front so the replay loop keeps
    its allocation discipline:

    - The {!Sampler} slices a launch into fixed windows of N cycles.
      Each window owns a fresh {!Stats.t} row that the engine counts
      into directly, so folding the rows with [Stats.add] in order
      reproduces the launch totals bit-for-bit (the same association of
      additions the device performs) — no delta subtraction, no float
      drift. Rows are recycled across launches until {!Sampler.take}
      detaches them; enabling sampling costs one row per window, never
      an allocation per instruction.

    - The {!Ring} is a pre-sized structure-of-arrays buffer of typed
      events (warp stall intervals by {!Label}, cache and DRAM
      transactions, all with absolute timestamps). The engine writes
      fields directly — int and float-array stores only, so recording
      never boxes or allocates — and when the ring is full it drops the
      oldest event and counts it (surfaced as the [trace.dropped]
      metric). [Repro_obs.Tracer] renders a {!dump} of it as Chrome
      trace-event JSON.

    This module is deliberately engine-agnostic: [Sm] and [Device] hold
    the hooks; nothing here calls back into them. *)

type config = {
  window : int option;
  (** Sampling window in cycles; [None] disables windowed sampling. *)
  trace : bool;  (** Record events into the ring. *)
  trace_capacity : int;
  (** Ring size in events (allocated once at configure time). *)
}

val default_window : int
(** 1024 cycles — fine enough to see warm-up and wave boundaries at the
    default scale, coarse enough that a run stays at tens of windows. *)

val default_capacity : int
(** 65536 events (six flat arrays; about 3 MB). *)

val off : config

val config_enabled : config -> bool
(** Whether the configuration turns anything on. *)

module Sampler : sig
  type t

  val create : window:int -> t
  (** Raises [Invalid_argument] when [window <= 0]. *)

  val window : t -> int

  val boundary_cell : t -> float array
  (** One-slot mailbox holding the current window's end time. The replay
      loop compares each event time against [cell.(0)] inline (a float
      array read never boxes) and calls {!advance} only on the rare
      crossing. *)

  val begin_launch : t -> unit
  (** Rewind to window 0 of a new launch (launches are timed from 0). *)

  val advance : t -> now:float -> unit
  (** Seal windows until [now] falls inside the current one (empty
      windows get zero rows), starting a fresh row for each. Cold path:
      called at most once per window boundary. *)

  val current : t -> Stats.t
  (** The open window's row; counting calls target it directly.
      Re-fetch after every {!advance}. *)

  val finish_launch : t -> cycles:float -> unit
  (** Assign each row its duration: every sealed window gets the full
      window length, the open one gets the remainder. The assignments
      are constructed so that summing the rows' [cycles] in order
      reproduces [cycles] exactly (see the exactness note in
      [timeline.mli]). *)

  val rows : t -> int
  (** Rows in use for the current launch (>= 1 after {!begin_launch}). *)

  val take : t -> Stats.t array
  (** Detach the launch's rows, in window order, replacing them with
      fresh zero rows. Call after {!finish_launch}. *)
end

module Ring : sig
  (** Event kinds; [arg_a]/[arg_b] meaning depends on the kind. *)

  val kind_stall : int
  (** A warp stall interval: [track] = SM, [arg_a] = label index,
      [arg_b] = warp id; [dur] = attributed stall cycles. *)

  val kind_l1 : int
  (** One L1 sector access: [track] = SM, [arg_a] = 1 on hit else 0,
      [arg_b] = sector. *)

  val kind_l2 : int
  (** One L2 sector access: [arg_a] bit 0 = hit, bit 1 = store,
      [arg_b] = sector. *)

  val kind_dram : int
  (** A DRAM transaction: [arg_a] = sectors consumed (2 for a load's
      64 B pair fill, 1 for a write-through store miss), [arg_b] =
      sector. *)

  val kind_tlb : int
  (** A TLB page-walk interval: [track] = SM, [arg_a] = radix levels
      walked, [arg_b] = sector; [dur] = walk cycles charged. TLB hits
      are not recorded (they are counted in [Stats]). *)

  (** The fields are public because the replay loop writes them in
      place: a [record] function taking [ts]/[dur] as arguments would
      box two floats per event. Writers fill the six arrays at index
      [head], then call {!bump}. *)
  type t = {
    cap : int;
    kind : int array;
    track : int array;
    arg_a : int array;
    arg_b : int array;
    ts : float array;   (** Absolute cycles (launch base already added). *)
    dur : float array;
    cells : float array;
    (** [cells.(0)]: the running launch's base time, added to every
        timestamp so multi-launch traces form one timeline;
        [cells.(1)]: max event end time seen since [begin_launch]
        (bounds the kernel span even when store drain outlives the
        last warp). *)
    mutable head : int;      (** Next write index. *)
    mutable len : int;
    mutable dropped : int;   (** Since the last {!take_dropped}. *)
    mutable all_dropped : int;
  }

  val create : capacity:int -> t
  (** Raises [Invalid_argument] when [capacity <= 0]. *)

  val begin_launch : t -> base:float -> unit
  (** Set the launch's base time and reset the max-end watermark. *)

  val bump : t -> unit
  (** Commit the event just written at [head]: advance [head], and
      either grow [len] or count a drop (the oldest event was
      overwritten — drop-oldest spill policy). *)

  val record :
    t -> kind:int -> track:int -> a:int -> b:int -> ts:float -> dur:float ->
    unit
  (** Convenience writer for cold paths and tests ([ts] is
      launch-relative; the base is added). The replay loop inlines the
      stores instead. *)

  val length : t -> int

  val take_dropped : t -> int
  (** Drops since the last call (folded into the launch's
      [trace.dropped] counter), resetting the tally. *)

  val all_dropped : t -> int
  (** Total drops since creation or {!clear}. *)

  val max_end : t -> float

  val clear : t -> unit

  val to_events : t -> (int * int * int * int * float * float) array
  (** Buffered events oldest-first as [(kind, track, a, b, ts, dur)]. *)
end

type t = {
  config : config;
  sampler : Sampler.t option;
  ring : Ring.t option;
}

val create : config -> t

(** {2 Dump} — the detached, render-ready view [Repro_obs.Tracer]
    consumes. *)

type event = {
  kind : int;
  track : int;
  arg_a : int;
  arg_b : int;
  ts : float;
  dur : float;
}

type kernel_span = {
  index : int;   (** Launch index. *)
  start : float; (** Absolute start cycle (cumulative over launches). *)
  dur : float;
  (** At least the launch's cycles; extended to cover trailing
      write-through DRAM drain recorded past the last warp's retirement. *)
}

type dump = {
  n_sms : int;
  window : int;  (** Sampling window in cycles; 0 when sampling was off. *)
  events : event array;  (** Oldest first. *)
  kernels : kernel_span list;  (** In launch order. *)
  dropped : int;  (** Events lost to the drop-oldest policy. *)
}

val events_of_ring : Ring.t -> event array
