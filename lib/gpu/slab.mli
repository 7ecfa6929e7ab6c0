(** A per-device value slab: stacks of reusable [int array]s, one stack
    per width, from which {!Warp_ctx} takes the arrays it hands to a
    warp body. Lifetime rule: an array taken from the slab is valid
    until the warp that took it ends; {!release} (called by the device
    at each warp start) makes every array available again. Bodies must
    therefore not keep such an array past their warp. The words kept
    across warps are bounded; takes beyond the bound allocate arrays the
    slab does not keep. *)

type t

val create : unit -> t

val take : t -> int -> int array
(** [take t n]: an array of length [n] with unspecified contents, not
    handed out again before the next {!release}. *)

val release : t -> unit
(** Return every array taken since the last release. *)
