let esc s = String.concat "\\\"" (String.split_on_char '"' s)

let block_body buf prefix (b : Block.t) =
  let p fmt = Printf.bprintf buf fmt in
  Array.iter
    (fun (r : Block.read) ->
      p "  %sR%d [shape=invhouse,label=\"read g%d\"];\n" prefix r.Block.rslot
        r.Block.reg;
      List.iter
        (fun tgt ->
          match tgt with
          | Target.To_instr { id; slot } ->
              p "  %sR%d -> %sI%d [%s];\n" prefix r.Block.rslot prefix id
                (match slot with
                | Target.Pred -> "style=dashed,label=\"p\""
                | Target.Left -> "label=\"l\""
                | Target.Right -> "label=\"r\"")
          | Target.To_write w -> p "  %sR%d -> %sW%d;\n" prefix r.Block.rslot prefix w)
        r.Block.rtargets)
    b.Block.reads;
  Array.iter
    (fun (i : Instr.t) ->
      let label =
        let base = Opcode.mnemonic i.Instr.opcode in
        let base =
          match i.Instr.pred with
          | Instr.Unpredicated -> base
          | Instr.If_true -> base ^ "_t"
          | Instr.If_false -> base ^ "_f"
        in
        if Opcode.has_immediate i.Instr.opcode then
          Printf.sprintf "%s #%Ld" base i.Instr.imm
        else base
      in
      let shape =
        match i.Instr.opcode with
        | Opcode.Bro | Opcode.Halt -> "cds"
        | Opcode.St _ -> "house"
        | Opcode.Null -> "octagon"
        | _ -> "box"
      in
      p "  %sI%d [shape=%s,label=\"I%d %s\"%s];\n" prefix i.Instr.id shape
        i.Instr.id (esc label)
        (if Instr.is_predicated i then ",style=filled,fillcolor=lightgrey"
         else "");
      List.iter
        (fun tgt ->
          match tgt with
          | Target.To_instr { id; slot } ->
              p "  %sI%d -> %sI%d [%s];\n" prefix i.Instr.id prefix id
                (match slot with
                | Target.Pred -> "style=dashed,label=\"p\""
                | Target.Left -> "label=\"l\""
                | Target.Right -> "label=\"r\"")
          | Target.To_write w -> p "  %sI%d -> %sW%d;\n" prefix i.Instr.id prefix w)
        i.Instr.targets)
    b.Block.instrs;
  Array.iter
    (fun (w : Block.write) ->
      p "  %sW%d [shape=house,label=\"write g%d\"];\n" prefix w.Block.wslot
        w.Block.wreg)
    b.Block.writes

let program_to_dot (pr : Program.t) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "digraph program {\n  rankdir=TB;\n  compound=true;\n";
  List.iteri
    (fun i (name, b) ->
      Printf.bprintf buf "  subgraph cluster_%d {\n    label=\"%s\";\n" i
        (esc name);
      block_body buf (Printf.sprintf "b%d_" i) b;
      Buffer.add_string buf "  }\n")
    pr.Program.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
