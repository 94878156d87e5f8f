type t = {
  sets : int;
  ways : int;
  line_bits : int;
  hit_latency : int;
  tags : int array array;
      (* per set, most recently used way first, -1 = invalid; [||] until
         the set is first touched. Line numbers fit a native int
         (addresses are well under 2^62), so tag compares are unboxed *)
}

let create ~size_bytes ~ways ~line_bytes ~hit_latency =
  let lines = size_bytes / line_bytes in
  let sets = max 1 (lines / ways) in
  let line_bits =
    let rec bits n acc = if n <= 1 then acc else bits (n / 2) (acc + 1) in
    bits line_bytes 0
  in
  { sets; ways; line_bits; hit_latency; tags = Array.make sets [||] }

let hit_latency t = t.hit_latency

let access t ~addr ~write =
  ignore write;
  (* identical line numbering to the int64 formulation: a logical
     64-bit shift by line_bits >= 6 always fits a native int *)
  let line = Int64.to_int (Int64.shift_right_logical addr t.line_bits) in
  let set = line mod t.sets in
  let tags =
    match t.tags.(set) with
    | [||] ->
        let a = Array.make t.ways (-1) in
        t.tags.(set) <- a;
        a
    | a -> a
  in
  let w = ref 0 in
  while !w < t.ways && tags.(!w) <> line do
    incr w
  done;
  let hit = !w < t.ways in
  (* move the line to the front; a miss evicts the least recently used
     way, the last (invalid ways sit behind every valid one) *)
  for j = (if hit then !w else t.ways - 1) downto 1 do
    tags.(j) <- tags.(j - 1)
  done;
  tags.(0) <- line;
  hit

let flush t = Array.fill t.tags 0 t.sets [||]
