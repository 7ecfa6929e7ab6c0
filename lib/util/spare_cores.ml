let initial = max 0 (Domain.recommended_domain_count () - 1)

let free = Atomic.make initial

let available () = Atomic.get free

let hold n f =
  ignore (Atomic.fetch_and_add free (-n));
  Fun.protect ~finally:(fun () -> ignore (Atomic.fetch_and_add free n)) f

let rec try_take () =
  let c = Atomic.get free in
  c > 0 && (Atomic.compare_and_set free c (c - 1) || try_take ())

let give () = Atomic.incr free
