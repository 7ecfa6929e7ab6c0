(* The benchmark's percentile rule. A timing is reported as its median
   and as the highest percentile, capped at p99, that still has at least
   [beyond] samples above it; the sample count goes with both. Failed
   operations enter the sample as [infinity], so they miss every
   latency limit and sort above every success. *)

type t = {
  n : int;            (* samples, failures included *)
  p50 : float;
  tail : float;       (* the sample at [tail_pct] *)
  tail_pct : float;   (* nearest-rank percentile of [tail] *)
  supported : bool;   (* false when n <= beyond: [tail] is the maximum *)
}

let beyond = 10

(* 0-based nearest-rank index of percentile [p] among [n] samples. *)
let rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))

(* Index of the tail sample: p99, or lower while fewer than [beyond]
   samples lie above it; the maximum when no percentile qualifies. *)
let tail_index n = if n > beyond then min (rank n 99.) (n - 1 - beyond) else n - 1

let summarize samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.summarize: no samples";
  let i = tail_index n in
  {
    n;
    p50 = a.(rank n 50.);
    tail = a.(i);
    tail_pct = 100. *. float_of_int (i + 1) /. float_of_int n;
    supported = n > beyond;
  }

(* A value fit for the JSON result line, which has no infinity: a
   percentile that lands on a failure reads as the largest float. *)
let finite v = if Float.is_finite v then v else Float.max_float

let median xs =
  match xs with
  | [] -> invalid_arg "Pct.median: empty"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let describe t =
  Printf.sprintf "n=%d p50=%.3f p%.1f=%.3f%s" t.n t.p50 t.tail_pct t.tail
    (if t.supported then "" else " (fewer than 11 samples: maximum)")
