(* The cycle simulator's event wheel: a ring of per-cycle int vectors. *)

type t = {
  mutable data : int array array;  (* per bucket: (event, generation) pairs *)
  mutable len : int array;  (* per bucket: ints in use *)
  mutable mask : int;  (* ring length - 1, a power of two minus one *)
  mutable lo : int;
      (* lowest cycle not yet drained; bucket b holds the events of cycle
         lo + ((b - lo) land mask) *)
  mutable spare : int array;  (* an empty vector [drain] swaps in *)
  mutable pending : int;
}

let horizon = 1024  (* initial ring length; > any default-machine latency *)

let create () =
  {
    data = Array.make horizon [||];
    len = Array.make horizon 0;
    mask = horizon - 1;
    lo = 0;
    spare = [||];
    pending = 0;
  }

let is_empty t = t.pending = 0

(* double the ring until [cycle] fits; every bucket's vector moves whole
   to the slot of the cycle it holds *)
let grow t cycle =
  let size = ref (2 * (t.mask + 1)) in
  while cycle - t.lo >= !size do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let data = Array.make !size [||] and len = Array.make !size 0 in
  for b = 0 to t.mask do
    let c = (t.lo + ((b - t.lo) land t.mask)) land mask in
    data.(c) <- t.data.(b);
    len.(c) <- t.len.(b)
  done;
  t.data <- data;
  t.len <- len;
  t.mask <- mask

let add t ~cycle ev gen =
  assert (cycle >= t.lo);
  if cycle - t.lo > t.mask then grow t cycle;
  let b = cycle land t.mask in
  let n = t.len.(b) in
  let v = t.data.(b) in
  let v =
    if n < Array.length v then v
    else begin
      let nv = Array.make (Int.max 8 (2 * n)) 0 in
      Array.blit v 0 nv 0 n;
      t.data.(b) <- nv;
      nv
    end
  in
  v.(n) <- ev;
  v.(n + 1) <- gen;
  t.len.(b) <- n + 2;
  t.pending <- t.pending + 1

let drain t ~cycle f =
  if cycle >= t.lo then begin
    let b = cycle land t.mask in
    let n = t.len.(b) in
    t.lo <- cycle + 1;
    if n > 0 then begin
      (* detach the bucket: [f] may schedule into its slot, now the
         ring's last cycle, or grow the ring *)
      let v = t.data.(b) in
      t.data.(b) <- t.spare;
      t.len.(b) <- 0;
      t.pending <- t.pending - (n / 2);
      let i = ref 0 in
      while !i < n do
        f v.(!i) v.(!i + 1);
        i := !i + 2
      done;
      t.spare <- v
    end
  end

let next_due t =
  if t.pending = 0 then max_int
  else begin
    let c = ref t.lo in
    while t.len.(!c land t.mask) = 0 do
      incr c
    done;
    !c
  end
