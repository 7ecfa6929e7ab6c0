type geometry = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let geometry ~size_bytes ~line_bytes ~ways =
  if line_bytes <= 0 || line_bytes mod Repro_mem.Vaddr.sector_bytes <> 0 then
    invalid_arg "Cache.geometry: line size must be a multiple of the sector size";
  if not (is_pow2 (line_bytes / Repro_mem.Vaddr.sector_bytes)) then
    invalid_arg "Cache.geometry: sectors per line must be a power of two";
  if ways <= 0 then invalid_arg "Cache.geometry: ways must be positive";
  if size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Cache.geometry: size must divide into sets";
  let sets = size_bytes / (line_bytes * ways) in
  if not (is_pow2 sets) then
    invalid_arg "Cache.geometry: the number of sets must be a power of two";
  { size_bytes; line_bytes; ways }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

type t = {
  geom : geometry;
  sets : int;
  (* Sector -> (line, sector-in-line) is a shift/mask pair: geometry
     validation forces the sector count per line (and the set count) to a
     power of two, so no div/mod survives on the lookup path. *)
  sector_shift : int;
  sector_mask : int;
  set_mask : int;
  (* Per (set, way): the resident line index (-1 when invalid), a valid
     bitmask over its sectors, and an LRU stamp. Flat arrays indexed by
     [set * ways + way] keep this allocation-free on the hot path. *)
  tags : int array;
  valid : int array;
  stamps : int array;
  (* A 1-cell array rather than a mutable int field so the replay loop
     (Sm.run_fused) can hoist it once and bump it with direct array
     stores. *)
  clock : int array;
}

let create geom =
  let sets = geom.size_bytes / (geom.line_bytes * geom.ways) in
  let slots = sets * geom.ways in
  let sectors_per_line = geom.line_bytes / Repro_mem.Vaddr.sector_bytes in
  {
    geom;
    sets;
    sector_shift = log2 sectors_per_line;
    sector_mask = sectors_per_line - 1;
    set_mask = sets - 1;
    tags = Array.make slots (-1);
    valid = Array.make slots 0;
    stamps = Array.make slots 0;
    clock = Array.make 1 0;
  }

let geometry_of t = t.geom

(* One sector lookup over the raw tag arrays: the first way holding
   [line] (scanning way 0 upward) refreshes its stamp and hits if the
   sector is valid, else validates it; an absent line evicts the LRU way
   (minimum stamp, first found on ties) and installs the sector. Returns
   true on a hit. Top level, with only int and array arguments, so the
   replay loop's call carries no closure environment and boxes nothing. *)
let raw_access (tags : int array) (valid : int array) (stamps : int array)
    (clock : int array) ways sshift smask setmask sector =
  let line = sector lsr sshift in
  let set = line land setmask in
  let now = clock.(0) + 1 in
  clock.(0) <- now;
  let bit = 1 lsl (sector land smask) in
  let base = set * ways in
  let slot = ref (-1) in
  let way = ref 0 in
  while !slot < 0 && !way < ways do
    if Array.unsafe_get tags (base + !way) = line then slot := base + !way
    else incr way
  done;
  if !slot >= 0 then begin
    let s = !slot in
    Array.unsafe_set stamps s now;
    if Array.unsafe_get valid s land bit <> 0 then true
    else begin
      Array.unsafe_set valid s (Array.unsafe_get valid s lor bit);
      false
    end
  end
  else begin
    let best = ref base in
    for k = 1 to ways - 1 do
      if Array.unsafe_get stamps (base + k) < Array.unsafe_get stamps !best
      then best := base + k
    done;
    let s = !best in
    Array.unsafe_set tags s line;
    Array.unsafe_set valid s bit;
    Array.unsafe_set stamps s now;
    false
  end

let access t ~sector =
  if
    raw_access t.tags t.valid t.stamps t.clock t.geom.ways t.sector_shift
      t.sector_mask t.set_mask sector
  then `Hit
  else `Miss

let probe t ~sector =
  let line = sector lsr t.sector_shift in
  let base = (line land t.set_mask) * t.geom.ways in
  let bit = 1 lsl (sector land t.sector_mask) in
  let hit = ref false in
  for slot = base to base + t.geom.ways - 1 do
    if t.tags.(slot) = line && t.valid.(slot) land bit <> 0 then hit := true
  done;
  !hit

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.valid 0 (Array.length t.valid) 0;
  Array.fill t.stamps 0 (Array.length t.stamps) 0

(* Raw state for the replay loop, hoisted into locals once per launch so
   a lookup is one direct call over arrays ([access] itself is a wrapper
   over the same [raw_access]). *)
module Raw = struct
  let access = raw_access
  let tags t = t.tags
  let valid t = t.valid
  let stamps t = t.stamps
  let clock_cell t = t.clock
  let ways t = t.geom.ways
  let sector_shift t = t.sector_shift
  let sector_mask t = t.sector_mask
  let set_mask t = t.set_mask
end
