(* Structure-of-arrays trace storage.

   One record per dynamic warp instruction, split across flat parallel int
   arrays. An emission trace keeps each memory instruction's per-lane
   canonical addresses in an arena ([addrs]) addressed by offset/length;
   the functional phase grows the arrays (amortized doubling). A sealed
   trace keeps the coalesced 32 B sectors instead, which is all the timing
   phase reads; it replays by index without allocating.

   Both kinds share one record type under a phantom parameter, so the
   column accessors serve both while the interface keeps them apart. *)

let op_load = 0
let op_store = 1
let op_compute = 2
let op_ctrl = 3
let op_const_load = 4
let op_call_indirect = 5
let op_call_direct = 6

type 'k trace = {
  mutable len : int;
  mutable op : int array;        (* op_* opcode *)
  mutable lbl : int array;       (* Label.to_index *)
  mutable act : int array;       (* active lanes when issued *)
  mutable rep : int array;       (* Instr.instruction_count *)
  mutable blk : int array;       (* blocking flag, 0/1 *)
  mutable aoff : int array;
  (* Emission: arena offset per record, -1 for non-mem records. Sealed:
     [len + 1] sector offsets; record [i] owns [aoff.(i) .. aoff.(i+1)-1]. *)
  mutable addrs : int array;     (* lane addresses, or sectors once sealed *)
  mutable addrs_len : int;
  mutable instr_total : int;     (* running sum of [rep] *)
}

type lanes
type sectors
type t = lanes trace
type sealed = sectors trace

let create ?(capacity = 64) () : t =
  let capacity = max 1 capacity in
  {
    len = 0;
    op = Array.make capacity 0;
    lbl = Array.make capacity 0;
    act = Array.make capacity 0;
    rep = Array.make capacity 0;
    blk = Array.make capacity 0;
    aoff = Array.make capacity (-1);
    addrs = Array.make (4 * capacity) 0;
    addrs_len = 0;
    instr_total = 0;
  }

(* Rewind for scratch reuse: the capacity (and any growth) survives, so a
   per-device scratch trace reaches steady state after the largest warp
   and emission stops allocating entirely. *)
let reset (t : t) =
  t.len <- 0;
  t.addrs_len <- 0;
  t.instr_total <- 0

let length t = t.len

let instruction_total t = t.instr_total

let grow_records t =
  let cap = 2 * Array.length t.op in
  let extend a fill =
    let fresh = Array.make cap fill in
    Array.blit a 0 fresh 0 t.len;
    fresh
  in
  t.op <- extend t.op 0;
  t.lbl <- extend t.lbl 0;
  t.act <- extend t.act 0;
  t.rep <- extend t.rep 0;
  t.blk <- extend t.blk 0;
  t.aoff <- extend t.aoff (-1)

let reserve_arena t n =
  let cap = Array.length t.addrs in
  if t.addrs_len + n > cap then begin
    let fresh = Array.make (max (2 * cap) (t.addrs_len + n)) 0 in
    Array.blit t.addrs 0 fresh 0 t.addrs_len;
    t.addrs <- fresh
  end

let push t ~op ~label ~active ~rep ~blocking ~aoff =
  if t.len >= Array.length t.op then grow_records t;
  let i = t.len in
  t.op.(i) <- op;
  t.lbl.(i) <- Label.to_index label;
  t.act.(i) <- active;
  t.rep.(i) <- rep;
  t.blk.(i) <- (if blocking then 1 else 0);
  t.aoff.(i) <- aoff;
  t.len <- i + 1;
  t.instr_total <- t.instr_total + rep

(* Memory emission strips TypePointer tag bits as the addresses land in the
   arena — the hardware-MMU view, fused with trace recording so no
   intermediate canonical array is built. The [_n] variants take an
   explicit lane count so callers can emit straight from a reusable
   scratch buffer wider than the warp. *)
let emit_mem_n (t : t) ~op ~label ~blocking addrs n =
  if n = 0 then invalid_arg "Trace.emit_mem: no active lanes";
  reserve_arena t n;
  let off = t.addrs_len in
  let arena = t.addrs in
  for k = 0 to n - 1 do
    arena.(off + k) <- addrs.(k) land Repro_mem.Vaddr.va_mask
  done;
  t.addrs_len <- off + n;
  push t ~op ~label ~active:n ~rep:1 ~blocking ~aoff:off;
  off

let emit_mem t ~op ~label ~blocking addrs =
  emit_mem_n t ~op ~label ~blocking addrs (Array.length addrs)

let emit_load t ~label ~blocking addrs =
  emit_mem t ~op:op_load ~label ~blocking addrs

let emit_load_n t ~label ~blocking addrs n =
  emit_mem_n t ~op:op_load ~label ~blocking addrs n

let emit_store t ~label addrs =
  emit_mem t ~op:op_store ~label ~blocking:false addrs

let emit_store_n t ~label addrs n =
  emit_mem_n t ~op:op_store ~label ~blocking:false addrs n

let emit_compute (t : t) ~label ~n ~blocking ~active =
  if n <= 0 then invalid_arg "Trace.emit_compute: n must be positive";
  push t ~op:op_compute ~label ~active ~rep:n ~blocking ~aoff:(-1)

let emit_ctrl (t : t) ~label ~n ~active =
  if n <= 0 then invalid_arg "Trace.emit_ctrl: n must be positive";
  push t ~op:op_ctrl ~label ~active ~rep:n ~blocking:false ~aoff:(-1)

let emit_const_load (t : t) ~label ~active =
  push t ~op:op_const_load ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

let emit_call_indirect (t : t) ~label ~active =
  push t ~op:op_call_indirect ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

let emit_call_direct (t : t) ~label ~active =
  push t ~op:op_call_direct ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

(* --- replay accessors (no bounds logic beyond the array checks) -------- *)

let op t i = t.op.(i)
let label_index t i = t.lbl.(i)
let active t i = t.act.(i)
let repeat t i = t.rep.(i)
let is_blocking t i = t.blk.(i) <> 0
let addr_off (t : t) i = t.aoff.(i)

let arena (t : t) = t.addrs
(* The current arena array. Further emission may replace it (growth), so
   fetch it again after any emit. *)

let sectors (t : sealed) i = Array.sub t.addrs t.aoff.(i) (t.aoff.(i + 1) - t.aoff.(i))

(* --- interning ---------------------------------------------------------

   The paper's workloads are homogeneous per type: every warp over a
   type-sharded (or COAL-sorted) range executes the same instruction
   stream, so a launch's [n_warps] traces collapse to a handful of
   distinct column sets. [Intern.seal] hash-conses the record columns
   (op/lbl/act/rep/blk): warps with identical streams share one physical
   set of column arrays.

   Addresses are not interned: two warps with the same instruction stream
   still touch different objects, and what those addresses coalesce to
   drives the cache and TLB state during replay. Replay needs only the
   coalesced sectors, so sealing runs the coalescer once per memory
   record and each sealed trace keeps a private, exact-size sector arena
   plus a private [len + 1] offset column (sector counts differ between
   warps that share columns). The lane arena is not kept: it is 1.9x the
   sector arena over the translated Fig. 6 cells at scale 0.25, and 16x
   in RAY.
   Replay reads columns through the shared arrays and sectors through
   the private arena, in the coalescer's ascending order, so timing is
   the same as coalescing at replay time, byte for byte. *)
module Intern = struct
  type pool = {
    tbl : (int, sealed list ref) Hashtbl.t;  (* stream hash -> representatives *)
    mutable sectors : int array;  (* reusable coalescing buffer *)
    mutable sealed : int;
    mutable unique : int;
    mutable sealed_instrs : int;
    mutable unique_instrs : int;
  }

  let create () =
    { tbl = Hashtbl.create 64; sectors = Array.make 256 0; sealed = 0;
      unique = 0; sealed_instrs = 0; unique_instrs = 0 }

  let mix h v =
    let h = h lxor (v + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) in
    h land max_int

  let stream_hash (tr : t) =
    let h = ref (mix 0 tr.len) in
    for i = 0 to tr.len - 1 do
      h := mix !h tr.op.(i);
      h := mix !h tr.lbl.(i);
      h := mix !h tr.act.(i);
      h := mix !h tr.rep.(i);
      h := mix !h tr.blk.(i)
    done;
    !h

  let same_stream (a : sealed) (b : t) =
    a.len = b.len
    &&
    let rec eq i =
      i >= a.len
      || (a.op.(i) = b.op.(i) && a.lbl.(i) = b.lbl.(i)
          && a.act.(i) = b.act.(i) && a.rep.(i) = b.rep.(i)
          && a.blk.(i) = b.blk.(i) && eq (i + 1))
    in
    eq 0

  (* Coalesce every memory record of [scratch] into [pool.sectors], back
     to back (a record never has more sectors than lanes, so the lane
     arena's length bounds the total); returns the offset column and the
     exact-size sector arena. *)
  let coalesce pool (scratch : t) =
    let n = scratch.len in
    if Array.length pool.sectors < scratch.addrs_len then
      pool.sectors <- Array.make (max scratch.addrs_len (2 * Array.length pool.sectors)) 0;
    let buf = pool.sectors in
    let off = Array.make (n + 1) 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      off.(i) <- !k;
      let a = scratch.aoff.(i) in
      if a >= 0 then
        k := !k + Coalesce.sectors_into ~buf ~at:!k scratch.addrs ~off:a
                    ~len:scratch.act.(i)
    done;
    off.(n) <- !k;
    (off, Array.sub buf 0 !k)

  let seal pool (scratch : t) : sealed =
    let n = scratch.len in
    let aoff, addrs = coalesce pool scratch in
    pool.sealed <- pool.sealed + 1;
    pool.sealed_instrs <- pool.sealed_instrs + scratch.instr_total;
    let h = stream_hash scratch in
    let bucket =
      match Hashtbl.find_opt pool.tbl h with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add pool.tbl h b;
        b
    in
    match List.find_opt (fun r -> same_stream r scratch) !bucket with
    | Some r ->
      (* Column hit: share the representative's arrays, private sectors. *)
      { len = n; op = r.op; lbl = r.lbl; act = r.act; rep = r.rep;
        blk = r.blk; aoff; addrs; addrs_len = Array.length addrs;
        instr_total = scratch.instr_total }
    | None ->
      let sub a = Array.sub a 0 n in
      let r =
        { len = n; op = sub scratch.op; lbl = sub scratch.lbl;
          act = sub scratch.act; rep = sub scratch.rep;
          blk = sub scratch.blk; aoff; addrs; addrs_len = Array.length addrs;
          instr_total = scratch.instr_total }
      in
      bucket := r :: !bucket;
      pool.unique <- pool.unique + 1;
      pool.unique_instrs <- pool.unique_instrs + scratch.instr_total;
      r

  let sealed p = p.sealed
  let unique p = p.unique
  let sealed_instrs p = p.sealed_instrs
  let unique_instrs p = p.unique_instrs
end

let shares_columns (a : sealed) (b : sealed) = a.op == b.op

(* Column views for the replay loop: hoisted once per launch so the
   per-instruction reads are direct (unsafe) array loads instead of
   cross-module calls. Only the first [length] records are live. *)
module Raw = struct
  let op_col (t : sealed) = t.op
  let lbl_col (t : sealed) = t.lbl
  let rep_col (t : sealed) = t.rep
  let blk_col (t : sealed) = t.blk
  let sector_off_col (t : sealed) = t.aoff
  let sector_col (t : sealed) = t.addrs
end

let arena_length (t : t) = t.addrs_len
