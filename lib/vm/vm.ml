(* The assembled translation model: one page table, per-SM L1 TLBs, one
   shared L2 TLB, and the latencies [Mem_path] charges per outcome.

   [lookup] is the replay-path entry point and returns a small integer
   code instead of a variant so the caller can branch and index a
   precomputed latency array without boxing anything:

     0                        L1 TLB hit (translation pipelined, free)
     1                        L2 TLB hit
     walk_base + levels       full walk of [levels] radix levels

   Unmapped sectors are charged a full [Page_table.max_levels] walk and
   never cached — the timing model stays total, and the sanitizer's
   page-table hook is what reports them as violations.

   Page memo. For each SM, [memo_lo]/[memo_hi] hold the sector bounds of
   the page that SM's L1 TLB touched last; a lookup inside them is an L1
   hit answered without [Page_table.find], [key] or [Tlb.access]. This is
   exact: the touch that set the memo (hit or fill) left that entry the
   newest in its set and in the whole TLB, and every later touch of that
   L1 TLB resets the memo. Skipping the re-stamp only leaves the TLB's
   [tick] lower, which preserves the order of every stamp, so no later
   LRU choice, code or counter changes. [flush_l1s]/[flush] empty it
   ([lo = hi]); an unmapped sector touches no TLB and leaves it alone. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l2_latency : float;
  walk_latency_per_level : float;
}

(* Reach at 4 KB: 32-entry L1 = 128 KB per SM, 512-entry shared L2 =
   2 MB; latencies in the rough proportion GPU TLB studies (Mosaic,
   GPUMMU) report against this config's 160-cycle L2 data latency. *)
let default_config =
  {
    l1_sets = 8;
    l1_ways = 4;
    l2_sets = 128;
    l2_ways = 4;
    l2_latency = 30.;
    walk_latency_per_level = 60.;
  }

let validate_config c =
  if c.l1_sets <= 0 || c.l1_sets land (c.l1_sets - 1) <> 0 then
    invalid_arg "Vm.create: l1_sets must be a positive power of two";
  if c.l2_sets <= 0 || c.l2_sets land (c.l2_sets - 1) <> 0 then
    invalid_arg "Vm.create: l2_sets must be a positive power of two";
  if c.l1_ways <= 0 || c.l2_ways <= 0 then
    invalid_arg "Vm.create: TLB ways must be positive";
  if c.l2_latency < 0. || c.walk_latency_per_level < 0. then
    invalid_arg "Vm.create: TLB latencies must be non-negative"

type t = {
  cfg : config;
  table : Page_table.t;
  cursor : Page_table.cursor; (* the replay side's own *)
  l1s : Tlb.t array;
  l2 : Tlb.t;
  memo_lo : int array; (* per SM; empty when lo = hi *)
  memo_hi : int array;
}

let create ?(config = default_config) ~n_sms ~table () =
  validate_config config;
  if n_sms <= 0 then invalid_arg "Vm.create: n_sms must be positive";
  {
    cfg = config;
    table;
    cursor = Page_table.cursor ();
    l1s =
      Array.init n_sms (fun _ ->
          Tlb.create ~sets:config.l1_sets ~ways:config.l1_ways);
    l2 = Tlb.create ~sets:config.l2_sets ~ways:config.l2_ways;
    memo_lo = Array.make n_sms 0;
    memo_hi = Array.make n_sms 0;
  }

let hit_l1 = 0
let hit_l2 = 1
let walk_base = 2
let max_code = walk_base + Page_table.max_levels

let lookup t ~sm ~sector =
  if
    sector >= Array.unsafe_get t.memo_lo sm
    && sector < Array.unsafe_get t.memo_hi sm
  then hit_l1
  else begin
    let i = Page_table.find t.table t.cursor sector in
    if i < 0 then walk_base + Page_table.max_levels
    else begin
      let key = Page_table.key t.table i sector in
      Array.unsafe_set t.memo_lo sm (Page_table.page_lo t.table i sector);
      Array.unsafe_set t.memo_hi sm (Page_table.page_hi t.table i sector);
      if Tlb.access (Array.unsafe_get t.l1s sm) ~key then hit_l1
      else if Tlb.access t.l2 ~key then hit_l2
      else walk_base + Page_table.levels_of t.table i
    end
  end

let latency_of_code t code =
  if code <= hit_l1 then 0.
  else if code = hit_l2 then t.cfg.l2_latency
  else
    t.cfg.l2_latency
    +. (float_of_int (code - walk_base) *. t.cfg.walk_latency_per_level)

let flush_l1s t =
  Array.iter Tlb.flush t.l1s;
  Array.fill t.memo_hi 0 (Array.length t.memo_hi) 0;
  Array.fill t.memo_lo 0 (Array.length t.memo_lo) 0

let flush t =
  flush_l1s t;
  Tlb.flush t.l2

let table t = t.table
let config t = t.cfg
let n_sms t = Array.length t.l1s

module Raw = struct
  let memo_lo t = t.memo_lo
  let memo_hi t = t.memo_hi
end
