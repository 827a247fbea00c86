type t = {
  blocks : Func.block array;
  pred : int list array;
  position : (string, int) Hashtbl.t;
  rpo : int array;
}

(* Index in [blocks] of the block labelled [l], or -1. *)
let index position rpo l =
  match Hashtbl.find position l with j -> rpo.(j) | exception Not_found -> -1

(* Depth-first from the entry.  [rpo.(j)] is -1 until block [j] is
   visited, -2 while it is on the stack, then its postorder number
   ([n] counts them). *)
let rec dfs position (all : Func.block array) rpo n label =
  match Hashtbl.find position label with
  | exception Not_found -> ()
  | j ->
      if rpo.(j) = -1 then begin
        rpo.(j) <- -2;
        (match all.(j).term with
        | Instr.Br l -> dfs position all rpo n l
        | Instr.Cond_br { if_true; if_false; _ } ->
            dfs position all rpo n if_true;
            dfs position all rpo n if_false
        | Instr.Ret _ | Instr.Unreachable -> ());
        rpo.(j) <- !n;
        incr n
      end

let of_func (f : Func.t) =
  let all = Array.of_list f.blocks in
  let nall = Array.length all in
  (* [find] returns the last of duplicate labels *)
  let position = Hashtbl.create nall in
  for j = 0 to nall - 1 do
    Hashtbl.add position all.(j).label j
  done;
  let rpo = Array.make nall (-1) in
  let n = ref 0 in
  if nall > 0 then dfs position all rpo n all.(0).label;
  let n = !n in
  (* postorder numbers become reverse-postorder indices *)
  let blocks = Array.sub all 0 n in
  for j = 0 to nall - 1 do
    if rpo.(j) >= 0 then begin
      rpo.(j) <- n - 1 - rpo.(j);
      blocks.(rpo.(j)) <- all.(j)
    end
  done;
  (* Edges to missing labels are dropped, and a [Cond_br] with equal
     targets is one edge.  Walking the sources downwards leaves every
     predecessor list in increasing order. *)
  let pred = Array.make n [] in
  let edge i s = if s >= 0 then pred.(s) <- i :: pred.(s) in
  for i = n - 1 downto 0 do
    match blocks.(i).term with
    | Instr.Br l -> edge i (index position rpo l)
    | Instr.Cond_br { if_true; if_false; _ } ->
        edge i (index position rpo if_true);
        if not (String.equal if_true if_false) then edge i (index position rpo if_false)
    | Instr.Ret _ | Instr.Unreachable -> ()
  done;
  { blocks; pred; position; rpo }

let index_of t label =
  let i = t.rpo.(Hashtbl.find t.position label) in
  if i < 0 then raise Not_found else i

let rec intersect idom b1 b2 =
  if b1 > b2 then intersect idom idom.(b1) b2
  else if b2 > b1 then intersect idom b1 idom.(b2)
  else b1

(* Immediate dominators, Cooper–Harvey–Kennedy over the RPO ordering
   [blocks] already provides.  The intersection walks rely on the
   classic property that a node's dominator always has a smaller RPO
   index than the node itself. *)
let idom t =
  let n = Array.length t.blocks in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec meet d = function
    | [] -> d
    | p :: rest ->
        if idom.(p) < 0 then meet d rest
        else meet (if d < 0 then p else intersect idom d p) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let d = meet (-1) t.pred.(i) in
      if d >= 0 && idom.(i) <> d then begin
        idom.(i) <- d;
        changed := true
      end
    done
  done;
  idom

let dominates ~idom a b =
  let rec up b = b = a || (b <> 0 && up idom.(b)) in
  up b
