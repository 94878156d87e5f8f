type t = {
  history_mask : int;
  table_mask : int;
  mutable history : int;
  exit_table : int array;  (* predicted exit index per (block,history) *)
  btb : (int, string) Hashtbl.t;  (* (block, exit) -> target *)
}

let create ?(history_bits = 4) ?(table_bits = 12) () =
  {
    history_mask = (1 lsl history_bits) - 1;
    table_mask = (1 lsl table_bits) - 1;
    history = 0;
    exit_table = Array.make (1 lsl table_bits) 0;
    btb = Hashtbl.create 256;
  }

let block_hash block = Hashtbl.hash block

(* the [_hashed] variants take the precomputed [block_hash] so callers
   that decode blocks once (the cycle simulator's block images) skip
   rehashing the name on every fetch; same arithmetic, same tables *)
let index_h t h = (h lxor (t.history * 31)) land t.table_mask
let btb_key_h h exit_idx = (h * 37) + exit_idx

let predict_hashed t ~block_hash:h =
  let exit_idx = t.exit_table.(index_h t h) in
  Hashtbl.find_opt t.btb (btb_key_h h exit_idx)

let update_hashed t ~block_hash:h ~exit_idx ~target =
  t.exit_table.(index_h t h) <- exit_idx;
  Hashtbl.replace t.btb (btb_key_h h exit_idx) target;
  t.history <- ((t.history lsl 2) lor (exit_idx land 3)) land t.history_mask

let predict t ~block = predict_hashed t ~block_hash:(block_hash block)

let update t ~block ~exit_idx ~target =
  update_hashed t ~block_hash:(block_hash block) ~exit_idx ~target
