module Opcode = Edge_isa.Opcode

type operand = T of Temp.t | C of int64

type instr =
  | Bin of { dst : Temp.t; op : Opcode.ibinop; a : operand; b : operand }
  | Fbin of { dst : Temp.t; op : Opcode.fbinop; a : operand; b : operand }
  | Cmp of {
      dst : Temp.t;
      cond : Opcode.cond;
      fp : bool;
      a : operand;
      b : operand;
    }
  | Un of { dst : Temp.t; op : Opcode.unop; a : operand }
  | Load of { dst : Temp.t; width : Opcode.width; addr : operand; off : int }
  | Store of { width : Opcode.width; addr : operand; off : int; v : operand }
  | Phi of { dst : Temp.t; args : (Label.t * operand) list }

type term =
  | Jmp of Label.t
  | Cbr of { c : Temp.t; if_true : Label.t; if_false : Label.t }
  | Ret of operand option

let def = function
  | Bin { dst; _ }
  | Fbin { dst; _ }
  | Cmp { dst; _ }
  | Un { dst; _ }
  | Load { dst; _ }
  | Phi { dst; _ } ->
      Some dst
  | Store _ -> None

let op_temp = function T t -> [ t ] | C _ -> []

let uses = function
  | Bin { a; b; _ } | Fbin { a; b; _ } | Cmp { a; b; _ } ->
      op_temp a @ op_temp b
  | Un { a; _ } -> op_temp a
  | Load { addr; _ } -> op_temp addr
  | Store { addr; v; _ } -> op_temp addr @ op_temp v
  | Phi { args; _ } -> List.concat_map (fun (_, o) -> op_temp o) args

let term_uses = function
  | Jmp _ -> []
  | Cbr { c; _ } -> [ c ]
  | Ret None -> []
  | Ret (Some o) -> op_temp o

let term_succs = function
  | Jmp l -> [ l ]
  | Cbr { if_true; if_false; _ } -> [ if_true; if_false ]
  | Ret _ -> []

let map_operands f = function
  | Bin r -> Bin { r with a = f r.a; b = f r.b }
  | Fbin r -> Fbin { r with a = f r.a; b = f r.b }
  | Cmp r -> Cmp { r with a = f r.a; b = f r.b }
  | Un r -> Un { r with a = f r.a }
  | Load r -> Load { r with addr = f r.addr }
  | Store r -> Store { r with addr = f r.addr; v = f r.v }
  | Phi r -> Phi { r with args = List.map (fun (l, o) -> (l, f o)) r.args }

let with_dst dst = function
  | Bin r -> Bin { r with dst }
  | Fbin r -> Fbin { r with dst }
  | Cmp r -> Cmp { r with dst }
  | Un r -> Un { r with dst }
  | Load r -> Load { r with dst }
  | Phi r -> Phi { r with dst }
  | Store _ as s -> s

let can_raise = function
  | Load _ | Store _ -> true
  | Bin { op = Opcode.Div; _ } | Bin { op = Opcode.Rem; _ } -> true
  | Bin _ | Fbin _ | Cmp _ | Un _ | Phi _ -> false

let is_cheap = function
  | Bin { op; _ } -> (
      match op with
      | Opcode.Mul | Opcode.Div | Opcode.Rem -> false
      | Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor
      | Opcode.Sll | Opcode.Srl | Opcode.Sra ->
          true)
  | Cmp { fp = false; _ } -> true
  | Un { op = Opcode.Mov; _ } | Un { op = Opcode.Not; _ }
  | Un { op = Opcode.Neg; _ } ->
      true
  | Un _ | Fbin _ | Cmp _ | Load _ | Store _ | Phi _ -> false

let pp_operand ppf = function
  | T t -> Temp.pp ppf t
  | C c -> Format.fprintf ppf "#%Ld" c

let pp_instr ppf i =
  let open Format in
  match i with
  | Bin { dst; op; a; b } ->
      fprintf ppf "%a = %s %a, %a" Temp.pp dst (Opcode.mnemonic (Opcode.Iop op))
        pp_operand a pp_operand b
  | Fbin { dst; op; a; b } ->
      fprintf ppf "%a = %s %a, %a" Temp.pp dst (Opcode.mnemonic (Opcode.Fop op))
        pp_operand a pp_operand b
  | Cmp { dst; cond; fp; a; b } ->
      fprintf ppf "%a = %s %a, %a" Temp.pp dst
        (Opcode.mnemonic
           (if fp then Opcode.Ftst cond else Opcode.Tst cond))
        pp_operand a pp_operand b
  | Un { dst; op; a } ->
      fprintf ppf "%a = %s %a" Temp.pp dst (Opcode.mnemonic (Opcode.Un op))
        pp_operand a
  | Load { dst; width; addr; off } ->
      fprintf ppf "%a = %s %d(%a)" Temp.pp dst
        (Opcode.mnemonic (Opcode.Ld width))
        off pp_operand addr
  | Store { width; addr; off; v } ->
      fprintf ppf "%s %a, %d(%a)"
        (Opcode.mnemonic (Opcode.St width))
        pp_operand v off pp_operand addr
  | Phi { dst; args } ->
      fprintf ppf "%a = phi" Temp.pp dst;
      List.iter
        (fun (l, o) -> fprintf ppf " [%a: %a]" Label.pp l pp_operand o)
        args

let pp_term ppf = function
  | Jmp l -> Format.fprintf ppf "jmp %a" Label.pp l
  | Cbr { c; if_true; if_false } ->
      Format.fprintf ppf "cbr %a ? %a : %a" Temp.pp c Label.pp if_true
        Label.pp if_false
  | Ret None -> Format.fprintf ppf "ret"
  | Ret (Some o) -> Format.fprintf ppf "ret %a" pp_operand o
