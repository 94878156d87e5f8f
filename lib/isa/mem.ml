type t = { data : Bytes.t; mutable stores : int }

let create ~size = { data = Bytes.make size '\000'; stores = 0 }
let size t = Bytes.length t.data
let equal a b = Bytes.equal a.data b.data
let store_count t = t.stores
let width_bytes = function Opcode.W1 -> 1 | Opcode.W4 -> 4 | Opcode.W8 -> 8

let in_range t ~addr ~bytes =
  (* all-int arithmetic: no boxed intermediates, no generic compares.
     [bytes] is a power of two, so the alignment test is a mask; the
     round-trip equality rejects addresses beyond native-int range *)
  let a = Int64.to_int addr in
  Int64.equal (Int64.of_int a) addr
  && a >= 0
  && a land (bytes - 1) = 0
  && a + bytes <= Bytes.length t.data

let load t ~width ~addr =
  let bytes = width_bytes width in
  if not (in_range t ~addr ~bytes) then Token.with_exc (Token.of_int64 0L)
  else
    let a = Int64.to_int addr in
    let v =
      match width with
      | Opcode.W1 -> Int64.of_int (Char.code (Bytes.get t.data a))
      | Opcode.W4 -> Int64.of_int32 (Bytes.get_int32_le t.data a)
      | Opcode.W8 -> Bytes.get_int64_le t.data a
    in
    let v =
      match width with
      | Opcode.W1 ->
          (* sign-extend byte *)
          if Int64.logand v 0x80L <> 0L then Int64.logor v (Int64.lognot 0xFFL)
          else v
      | Opcode.W4 | Opcode.W8 -> v
    in
    Token.of_int64 v

let store t ~width ~addr v =
  let bytes = width_bytes width in
  if not (in_range t ~addr ~bytes) then Error ()
  else begin
    let a = Int64.to_int addr in
    (match width with
    | Opcode.W1 ->
        Bytes.set t.data a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | Opcode.W4 -> Bytes.set_int32_le t.data a (Int64.to_int32 v)
    | Opcode.W8 -> Bytes.set_int64_le t.data a v);
    t.stores <- t.stores + 1;
    Ok ()
  end

let load_int t addr = Bytes.get_int64_le t.data addr
let store_int t addr v = Bytes.set_int64_le t.data addr v
let store_float t addr v = store_int t addr (Int64.bits_of_float v)
