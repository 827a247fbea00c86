type table = {
  offsets : int array array;
  totals : int array;
  max_total : int;
}

(* Place the allocations in the order [order], aligning each as it is
   placed; record each allocation's offset in [indexes], indexed by its
   ORIGINAL position, and return the bytes the layout consumes. *)
let place meta (order : int array) (indexes : int array) =
  let ind = ref 0 in
  for k = 0 to Array.length order - 1 do
    let e = order.(k) in
    let size, alignment = meta.(e) in
    ind := Sutil.Align.align_up !ind ~alignment;
    indexes.(e) <- !ind;
    ind := !ind + size
  done;
  !ind

(* One row of Algorithm 1: the [p]-th lexical-order permutation,
   decoded from [p] as the paper's PERMUTE procedure does. *)
let row_for_index meta p =
  let n = Array.length meta in
  let indexes = Array.make n 0 in
  let total = place meta (Sutil.Fact.lehmer_decode ~n p) indexes in
  (indexes, total)

(* Step [a] in place to the next permutation in lexical order; [a] must
   not be the last one (descending). *)
let next_permutation (a : int array) =
  let i = ref (Array.length a - 2) in
  while a.(!i) > a.(!i + 1) do
    decr i
  done;
  let j = ref (Array.length a - 1) in
  while a.(!j) < a.(!i) do
    decr j
  done;
  let swap x y =
    let t = a.(x) in
    a.(x) <- a.(y);
    a.(y) <- t
  in
  swap !i !j;
  let lo = ref (!i + 1) and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    swap !lo !hi;
    incr lo;
    decr hi
  done

let generate ?shuffle meta =
  let n = Array.length meta in
  if n > Sutil.Fact.max_factorial_arg then
    invalid_arg "Smokestack.Permgen.generate: too many allocations";
  Array.iter
    (fun (size, alignment) ->
      if size < 0 then invalid_arg "Smokestack.Permgen.generate: negative size";
      if not (Sutil.Align.is_pow2 alignment) then
        invalid_arg "Smokestack.Permgen.generate: alignment not a power of two")
    meta;
  let rows = Sutil.Fact.factorial n in
  (* The rows are shuffled to break lexical adjacency: the shuffled
     table's row [k] is lexical row [shuffled.(k)], so lexical row [p]
     is written straight to row [slot.(p)]. *)
  let slot =
    let shuffled = Array.init rows Fun.id in
    Option.iter (fun rng -> Sutil.Simrng.shuffle rng shuffled) shuffle;
    Sutil.Fact.invert shuffled
  in
  let offsets = Array.make rows [||] in
  let totals = Array.make rows 0 in
  (* Algorithm 1 fixes which permutation each row holds, not how to
     enumerate them: stepping one order array through lexical order
     gives row [p] the permutation [row_for_index] decodes from [p],
     without decoding each index afresh. *)
  let order = Array.init n Fun.id in
  for p = 0 to rows - 1 do
    if p > 0 then next_permutation order;
    let indexes = Array.make n 0 in
    totals.(slot.(p)) <- place meta order indexes;
    offsets.(slot.(p)) <- indexes
  done;
  let max_total = Array.fold_left max 0 totals in
  { offsets; totals; max_total }

let layout_valid meta row =
  let n = Array.length meta in
  Array.length row = n
  && (let ok = ref true in
      for i = 0 to n - 1 do
        let _, alignment = meta.(i) in
        if not (Sutil.Align.is_aligned row.(i) ~alignment) then ok := false
      done;
      !ok)
  &&
  (* no overlap: sort intervals by start and check adjacency *)
  let intervals =
    Array.init n (fun i -> (row.(i), row.(i) + fst meta.(i)))
  in
  Array.sort compare intervals;
  let ok = ref true in
  for i = 1 to n - 1 do
    let _, prev_end = intervals.(i - 1) in
    let start, _ = intervals.(i) in
    if start < prev_end then ok := false
  done;
  !ok
