(** Phase-2 timing: the quantized event-driven warp scheduler.

    All SMs are co-simulated in one event loop because they contend for
    the shared L2 and DRAM. Each SM owns an issue clock (bounding its
    instructions per cycle), an LSU/L1 (state in {!Mem_path}) and a
    residency limit: warps beyond [max_warps_per_sm] wait and activate as
    resident warps retire — the wave behaviour of a real launch.

    Blocking instructions stall their warp until completion; the stall
    (completion minus issue) is attributed to the instruction's label,
    which is how the Figure 1b latency breakdown is measured. *)

val run_fused :
  ?telemetry:Telemetry.t ->
  Config.t -> Mem_path.t -> stats:Stats.t -> traces:Trace.sealed array -> float
(** Simulate one kernel launch whose warp [i] executes [traces.(i)] on SM
    [i mod n_sms]; returns the completion time in cycles (0. for an empty
    launch). Counters (instructions, transactions, hits, TLB outcomes,
    stalls) are accumulated into [stats]; the caller adds the returned
    cycles. When the memory path has a translation model attached
    ({!Mem_path.set_vm}), every sector is translated first.

    This is the only replay loop: trace columns, cache tag state and the
    memory-path clocks are hoisted once per launch and the hierarchy walk
    is inlined, so the per-instruction path allocates nothing. Traces are
    sealed ({!Trace.Intern.seal}), so each memory record's sectors are
    already coalesced. Integer
    counters are flushed in one exact add per launch.

    When [telemetry] carries a sampler the caller must bracket the run
    with [Sampler.begin_launch]/[finish_launch]; counters then flow into
    the sampler's per-window rows instead of [stats] (fold the rows to
    get the launch totals — bit-exact by construction). When it carries
    a ring, warp stall intervals and every L1/L2/DRAM/TLB sector event
    are recorded; the caller brackets the launch with
    [Ring.begin_launch]. Telemetry observes only: cycles and every
    counter are the same with or without it. *)
