type t = int

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf t = Format.fprintf ppf "t%d" t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Gen = struct
  type t = int ref

  let create () = ref 0

  let fresh r =
    let v = !r in
    incr r;
    v

  let next_above r t = if t >= !r then r := t + 1
  let copy r = ref !r
end
