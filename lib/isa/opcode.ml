type ibinop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra
type cond = Eq | Ne | Lt | Le | Gt | Ge
type fbinop = Fadd | Fsub | Fmul | Fdiv
type unop = Mov | Not | Neg | Fneg | Fitod | Fdtoi
type width = W1 | W4 | W8

type t =
  | Iop of ibinop
  | Iopi of ibinop
  | Tst of cond
  | Tsti of cond
  | Fop of fbinop
  | Ftst of cond
  | Un of unop
  | Movi
  | Geni
  | Mov4
  | Ld of width
  | St of width
  | Bro
  | Halt
  | Null
  | Sand

let equal (a : t) (b : t) = a = b

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le

(* what the data operations compute on 64-bit payloads; a double
   travels as its IEEE-754 bits *)
let mask63 v = Int64.to_int (Int64.logand v 63L)
let as_float = Int64.float_of_bits
let of_float = Int64.bits_of_float

let ibinop op a b =
  match op with
  | Add -> Some (Int64.add a b)
  | Sub -> Some (Int64.sub a b)
  | Mul -> Some (Int64.mul a b)
  | Div -> if b = 0L then None else Some (Int64.div a b)
  | Rem -> if b = 0L then None else Some (Int64.rem a b)
  | And -> Some (Int64.logand a b)
  | Or -> Some (Int64.logor a b)
  | Xor -> Some (Int64.logxor a b)
  | Sll -> Some (Int64.shift_left a (mask63 b))
  | Srl -> Some (Int64.shift_right_logical a (mask63 b))
  | Sra -> Some (Int64.shift_right a (mask63 b))

let icmp cond a b =
  let c = Int64.compare a b in
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let fcmp cond a b =
  let x = as_float a and y = as_float b in
  match cond with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let fbinop op a b =
  let x = as_float a and y = as_float b in
  match op with
  | Fadd -> of_float (x +. y)
  | Fsub -> of_float (x -. y)
  | Fmul -> of_float (x *. y)
  | Fdiv -> of_float (x /. y)

let unop op a =
  match op with
  | Mov -> a
  | Not -> Int64.lognot a
  | Neg -> Int64.neg a
  | Fneg -> of_float (-.as_float a)
  | Fitod -> of_float (Int64.to_float a)
  | Fdtoi -> Int64.of_float (as_float a)

let num_operands = function
  | Iop _ | Tst _ | Fop _ | Ftst _ | St _ | Sand -> 2
  | Iopi _ | Tsti _ | Un _ | Ld _ | Mov4 -> 1
  | Movi | Geni | Null | Bro | Halt -> 0

let max_targets = function
  | Iop _ | Tst _ | Fop _ | Ftst _ | Un _ | Sand -> 2
  | Iopi _ | Tsti _ | Movi | Geni | Ld _ -> 1
  | Mov4 -> 4
  | Null -> 2
  | St _ | Bro | Halt -> 0

let predicatable = function
  | Geni | Mov4 -> false
  | Iop _ | Iopi _ | Tst _ | Tsti _ | Fop _ | Ftst _ | Un _ | Movi | Ld _
  | St _ | Bro | Halt | Null | Sand ->
      true

let produces_value = function
  | Iop _ | Iopi _ | Tst _ | Tsti _ | Fop _ | Ftst _ | Un _ | Movi | Geni
  | Mov4 | Ld _ | Null | Sand ->
      true
  | St _ | Bro | Halt -> false

let is_test = function
  | Tst _ | Tsti _ | Ftst _ | Sand -> true
  | Iop _ | Iopi _ | Fop _ | Un _ | Movi | Geni | Mov4 | Ld _ | St _ | Bro
  | Halt | Null ->
      false

let is_branch = function
  | Bro | Halt -> true
  | Iop _ | Iopi _ | Tst _ | Tsti _ | Fop _ | Ftst _ | Un _ | Movi | Geni
  | Mov4 | Ld _ | St _ | Null | Sand ->
      false

let has_immediate = function
  | Iopi _ | Tsti _ | Movi | Geni | Ld _ | St _ | Bro -> true
  | Iop _ | Tst _ | Fop _ | Ftst _ | Un _ | Mov4 | Halt | Null | Sand -> false

let latency = function
  | Iop i | Iopi i -> (
      match i with
      | Mul -> 3
      | Div | Rem -> 24
      | Add | Sub | And | Or | Xor | Sll | Srl | Sra -> 1)
  | Tst _ | Tsti _ -> 1
  | Fop f -> ( match f with Fdiv -> 24 | Fadd | Fsub | Fmul -> 4)
  | Ftst _ -> 4
  | Un u -> ( match u with Fitod | Fdtoi | Fneg -> 4 | Mov | Not | Neg -> 1)
  | Movi | Geni | Mov4 | Null | Sand -> 1
  | Ld _ | St _ -> 1 (* address generation; cache latency is added by the
                        memory model *)
  | Bro | Halt -> 1

let ibinop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let fbinop_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let unop_name = function
  | Mov -> "mov"
  | Not -> "not"
  | Neg -> "neg"
  | Fneg -> "fneg"
  | Fitod -> "fitod"
  | Fdtoi -> "fdtoi"

let width_suffix = function W1 -> "b" | W4 -> "w" | W8 -> "d"

let mnemonic = function
  | Iop i -> ibinop_name i
  | Iopi i -> ibinop_name i ^ "i"
  | Tst c -> "t" ^ cond_name c
  | Tsti c -> "t" ^ cond_name c ^ "i"
  | Fop f -> fbinop_name f
  | Ftst c -> "f" ^ cond_name c
  | Un u -> unop_name u
  | Movi -> "movi"
  | Geni -> "geni"
  | Mov4 -> "mov4"
  | Ld w -> "l" ^ width_suffix w
  | St w -> "s" ^ width_suffix w
  | Bro -> "bro"
  | Halt -> "halt"
  | Null -> "null"
  | Sand -> "sand"

let all =
  let ibinops = [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra ] in
  let conds = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  let fbinops = [ Fadd; Fsub; Fmul; Fdiv ] in
  let unops = [ Mov; Not; Neg; Fneg; Fitod; Fdtoi ] in
  let widths = [ W1; W4; W8 ] in
  List.concat
    [
      List.map (fun i -> Iop i) ibinops;
      List.map (fun i -> Iopi i) ibinops;
      List.map (fun c -> Tst c) conds;
      List.map (fun c -> Tsti c) conds;
      List.map (fun f -> Fop f) fbinops;
      List.map (fun c -> Ftst c) conds;
      List.map (fun u -> Un u) unops;
      [ Movi; Geni; Mov4; Sand ];
      List.map (fun w -> Ld w) widths;
      List.map (fun w -> St w) widths;
      [ Bro; Halt; Null ];
    ]

let of_mnemonic s = List.find_opt (fun op -> String.equal (mnemonic op) s) all
let pp ppf op = Format.pp_print_string ppf (mnemonic op)
