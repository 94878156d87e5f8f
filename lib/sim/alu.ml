module Opcode = Edge_isa.Opcode
module Token = Edge_isa.Token

let mask63 v = Int64.to_int (Int64.logand v 63L)
let as_float = Int64.float_of_bits
let of_float = Int64.bits_of_float
let bool_val b = if b then 1L else 0L

let ibinop op a b =
  match op with
  | Opcode.Add -> Ok (Int64.add a b)
  | Opcode.Sub -> Ok (Int64.sub a b)
  | Opcode.Mul -> Ok (Int64.mul a b)
  | Opcode.Div -> if b = 0L then Error () else Ok (Int64.div a b)
  | Opcode.Rem -> if b = 0L then Error () else Ok (Int64.rem a b)
  | Opcode.And -> Ok (Int64.logand a b)
  | Opcode.Or -> Ok (Int64.logor a b)
  | Opcode.Xor -> Ok (Int64.logxor a b)
  | Opcode.Sll -> Ok (Int64.shift_left a (mask63 b))
  | Opcode.Srl -> Ok (Int64.shift_right_logical a (mask63 b))
  | Opcode.Sra -> Ok (Int64.shift_right a (mask63 b))

let icmp cond a b =
  let c = Int64.compare a b in
  match cond with
  | Opcode.Eq -> c = 0
  | Opcode.Ne -> c <> 0
  | Opcode.Lt -> c < 0
  | Opcode.Le -> c <= 0
  | Opcode.Gt -> c > 0
  | Opcode.Ge -> c >= 0

let fcmp cond a b =
  let x = as_float a and y = as_float b in
  match cond with
  | Opcode.Eq -> x = y
  | Opcode.Ne -> x <> y
  | Opcode.Lt -> x < y
  | Opcode.Le -> x <= y
  | Opcode.Gt -> x > y
  | Opcode.Ge -> x >= y

let fbinop op a b =
  let x = as_float a and y = as_float b in
  match op with
  | Opcode.Fadd -> of_float (x +. y)
  | Opcode.Fsub -> of_float (x -. y)
  | Opcode.Fmul -> of_float (x *. y)
  | Opcode.Fdiv -> of_float (x /. y)

let unop op a =
  match op with
  | Opcode.Mov -> a
  | Opcode.Not -> Int64.lognot a
  | Opcode.Neg -> Int64.neg a
  | Opcode.Fneg -> of_float (-.as_float a)
  | Opcode.Fitod -> of_float (Int64.to_float a)
  | Opcode.Fdtoi -> Int64.of_float (as_float a)

(* tainted result constructors, allocation-light: equivalent to
   [Token.taint]-folding the operands over [Token.of_int64 v] but
   without the intermediate records and taint list *)
let result1 (l : Token.t) v = { Token.payload = v; null = l.null; exc = l.exc }

let result2 (l : Token.t) (r : Token.t) v =
  { Token.payload = v; null = l.null || r.null; exc = l.exc || r.exc }

let exec opcode ~imm ~(left : Token.t) ~(right : Token.t) =
  match opcode with
  | Opcode.Iop op ->
      let l = left and r = right in
      (match ibinop op l.Token.payload r.Token.payload with
      | Ok v -> result2 l r v
      | Error () -> Token.with_exc (result2 l r 0L))
  | Opcode.Iopi op ->
      let l = left in
      (match ibinop op l.Token.payload imm with
      | Ok v -> result1 l v
      | Error () -> Token.with_exc (result1 l 0L))
  | Opcode.Tst cond ->
      let l = left and r = right in
      result2 l r (bool_val (icmp cond l.Token.payload r.Token.payload))
  | Opcode.Tsti cond ->
      let l = left in
      result1 l (bool_val (icmp cond l.Token.payload imm))
  | Opcode.Fop op ->
      let l = left and r = right in
      result2 l r (fbinop op l.Token.payload r.Token.payload)
  | Opcode.Ftst cond ->
      let l = left and r = right in
      result2 l r (bool_val (fcmp cond l.Token.payload r.Token.payload))
  | Opcode.Un Opcode.Mov | Opcode.Mov4 ->
      (* tokens are immutable: a move forwards its operand itself *)
      left
  | Opcode.Un op ->
      let l = left in
      result1 l (unop op l.Token.payload)
  | Opcode.Movi | Opcode.Geni -> Token.of_int64 imm
  | Opcode.Null -> Token.null_token
  | Opcode.Sand ->
      (* short-circuit: with a false left operand the right one may never
         arrive and is not read (Section 7) *)
      let l = left in
      if not (Token.as_predicate l) then
        Token.taint l (Token.of_int64 0L)
      else result2 l right (if Token.as_predicate right then 1L else 0L)
  | Opcode.Ld _ | Opcode.St _ | Opcode.Bro | Opcode.Halt ->
      invalid_arg "Alu.exec: memory/branch opcode"
