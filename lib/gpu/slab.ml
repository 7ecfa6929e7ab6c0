(* Per-device stacks of reusable int arrays, one stack per width. A warp
   body's value arrays (loaded values, divergence groups, index maps,
   sub-lane ids) are taken from here instead of the minor heap, and all
   of them come back at once when the next warp starts: an array handed
   to a body is valid until its warp ends.

   [stacks.(n)] holds the width-[n] arrays kept so far, [used.(n)] of
   them handed out since the last release; slots past the kept ones
   hold [[||]]. A take with none free fills a fresh array and keeps it
   for later warps while [retained] stays within [max_words]; past that
   bound it allocates an array the slab does not keep, so a body with an
   unusually long warp costs what it did without a slab and the memory
   kept across warps stays bounded. *)

(* The largest warp of any workload at scale 0.25 (in RAY) holds about
   16 K words of value arrays at once. *)
let max_words = 1 lsl 16

type t = {
  mutable stacks : int array array array; (* by width *)
  mutable used : int array; (* by width *)
  mutable retained : int; (* words kept across warps *)
}

let create () = { stacks = [||]; used = [||]; retained = 0 }

let widen t n =
  let len = Array.length t.used in
  let len' = max (n + 1) (2 * len) in
  let stacks = Array.make len' [||] and used = Array.make len' 0 in
  Array.blit t.stacks 0 stacks 0 len;
  Array.blit t.used 0 used 0 len;
  t.stacks <- stacks;
  t.used <- used

(* No kept array of width [n] is free: make one, and keep it if the
   bound allows. *)
let fresh t n =
  let a = Array.make n 0 in
  if t.retained + n <= max_words then begin
    let u = t.used.(n) in
    if u >= Array.length t.stacks.(n) then begin
      let grown = Array.make (max 4 (2 * u)) [||] in
      Array.blit t.stacks.(n) 0 grown 0 u;
      t.stacks.(n) <- grown
    end;
    t.stacks.(n).(u) <- a;
    t.used.(n) <- u + 1;
    t.retained <- t.retained + n
  end;
  a

let take t n =
  if n >= Array.length t.used then widen t n;
  let u = Array.unsafe_get t.used n in
  let stack = Array.unsafe_get t.stacks n in
  (* Slot [u] is a kept array iff it has width [n]; for [n = 0] the
     placeholder is itself a valid answer. *)
  if u < Array.length stack && Array.length (Array.unsafe_get stack u) = n
  then begin
    Array.unsafe_set t.used n (u + 1);
    Array.unsafe_get stack u
  end
  else fresh t n

let release t = Array.fill t.used 0 (Array.length t.used) 0
