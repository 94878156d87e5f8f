module Opcode = Edge_isa.Opcode
module Token = Edge_isa.Token

let bool_val b = if b then 1L else 0L

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
      (match Opcode.ibinop op l.Token.payload r.Token.payload with
      | Some v -> result2 l r v
      | None -> Token.with_exc (result2 l r 0L))
  | Opcode.Iopi op ->
      let l = left in
      (match Opcode.ibinop op l.Token.payload imm with
      | Some v -> result1 l v
      | None -> Token.with_exc (result1 l 0L))
  | Opcode.Tst cond ->
      let l = left and r = right in
      result2 l r (bool_val (Opcode.icmp cond l.Token.payload r.Token.payload))
  | Opcode.Tsti cond ->
      let l = left in
      result1 l (bool_val (Opcode.icmp cond l.Token.payload imm))
  | Opcode.Fop op ->
      let l = left and r = right in
      result2 l r (Opcode.fbinop op l.Token.payload r.Token.payload)
  | Opcode.Ftst cond ->
      let l = left and r = right in
      result2 l r (bool_val (Opcode.fcmp cond l.Token.payload r.Token.payload))
  | Opcode.Un Opcode.Mov | Opcode.Mov4 ->
      (* tokens are immutable: a move forwards its operand itself *)
      left
  | Opcode.Un op ->
      let l = left in
      result1 l (Opcode.unop op l.Token.payload)
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
