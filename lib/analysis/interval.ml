type t = { lo : int64 option; hi : int64 option }

let top = { lo = None; hi = None }
let const c = { lo = Some c; hi = Some c }
let of_bounds lo hi = { lo = Some lo; hi = Some hi }
let is_top t = t.lo = None && t.hi = None

let is_empty t =
  match (t.lo, t.hi) with
  | Some lo, Some hi -> Int64.compare lo hi > 0
  | _ -> false

let equal a b = a.lo = b.lo && a.hi = b.hi

(* bound helpers: [None] means "unbounded" on that side *)
let outer_min a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b)

let outer_max a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (if Int64.compare a b >= 0 then a else b)

let inner_max a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (if Int64.compare a b >= 0 then a else b)

let inner_min a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b)

let join a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = outer_min a.lo b.lo; hi = outer_max a.hi b.hi }

(* Unstable bounds jump through the narrow-int range boundaries before
   going unbounded: an i32 loop counter widened straight to +inf makes
   the sext that follows every i32 load assume the full signed range,
   and branch refinement can never narrow it back.  Snapping to
   2^31-1 first keeps sext the identity, so the loop bound survives. *)
let widen_thresholds = [ 127L; 32767L; 2147483647L ]

let widen ~old now =
  if is_empty old then now
  else if is_empty now then old
  else
    {
      lo =
        (match (old.lo, now.lo) with
        | Some o, Some n when Int64.compare n o >= 0 -> Some o
        | Some _, Some n ->
            List.fold_left
              (fun acc t ->
                let t = Int64.neg (Int64.add t 1L) in
                if acc = None && Int64.compare t n <= 0 then Some t else acc)
              None widen_thresholds
        | _ -> None);
      hi =
        (match (old.hi, now.hi) with
        | Some o, Some n when Int64.compare n o <= 0 -> Some o
        | Some _, Some n ->
            List.fold_left
              (fun acc t ->
                if acc = None && Int64.compare t n >= 0 then Some t else acc)
              None widen_thresholds
        | _ -> None);
    }

let meet a b = { lo = inner_max a.lo b.lo; hi = inner_min a.hi b.hi }

(* checked int64 arithmetic: None on overflow *)
let checked_add a b =
  let s = Int64.add a b in
  let sa = Int64.compare a 0L and sb = Int64.compare b 0L in
  if (sa > 0 && sb > 0 && Int64.compare s a < 0)
     || (sa < 0 && sb < 0 && Int64.compare s a > 0)
  then None
  else Some s

let checked_mul a b =
  if a = 0L || b = 0L then Some 0L
  else if a = -1L && b = Int64.min_int then None
  else if b = -1L && a = Int64.min_int then None
  else
    let p = Int64.mul a b in
    if Int64.div p b = a then Some p else None

let lift2 f a b = match (a, b) with Some a, Some b -> f a b | _ -> None

let add a b =
  if is_empty a || is_empty b then a
  else { lo = lift2 checked_add a.lo b.lo; hi = lift2 checked_add a.hi b.hi }

let neg t =
  if is_empty t then t
  else
    let flip = function
      | Some v when v <> Int64.min_int -> Some (Int64.neg v)
      | _ -> None
    in
    { lo = flip t.hi; hi = flip t.lo }

let sub a b = add a (neg b)

let mul a b =
  if is_empty a || is_empty b then a
  else
    match (a.lo, a.hi, b.lo, b.hi) with
    | Some al, Some ah, Some bl, Some bh ->
        let ps =
          [
            checked_mul al bl; checked_mul al bh; checked_mul ah bl;
            checked_mul ah bh;
          ]
        in
        if List.exists (( = ) None) ps then top
        else
          let vs = List.filter_map Fun.id ps in
          let v = List.hd vs and rest = List.tl vs in
          {
            lo =
              Some
                (List.fold_left
                   (fun acc x -> if Int64.compare x acc < 0 then x else acc)
                   v rest);
            hi =
              Some
                (List.fold_left
                   (fun acc x -> if Int64.compare x acc > 0 then x else acc)
                   v rest);
          }
    | _ -> top

let nonneg t = match t.lo with Some l -> Int64.compare l 0L >= 0 | None -> false

let singleton t =
  match (t.lo, t.hi) with Some a, Some b when a = b -> Some a | _ -> None

(* truncation division is monotone non-decreasing in the dividend for a
   positive constant divisor *)
let sdiv a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some c when Int64.compare c 0L > 0 ->
        {
          lo = Option.map (fun v -> Int64.div v c) a.lo;
          hi = Option.map (fun v -> Int64.div v c) a.hi;
        }
    | _ -> (
        match b.lo with
        | Some bl when Int64.compare bl 1L >= 0 && nonneg a ->
            { lo = Some 0L; hi = a.hi }
        | _ -> top)

let udiv a b =
  if is_empty a || is_empty b then a
  else if nonneg a then
    match singleton b with
    | Some c when Int64.compare c 0L > 0 ->
        {
          lo = Option.map (fun v -> Int64.div v c) a.lo;
          hi = Option.map (fun v -> Int64.div v c) a.hi;
        }
    | _ -> (
        match b.lo with
        | Some bl when Int64.compare bl 1L >= 0 -> { lo = Some 0L; hi = a.hi }
        | _ -> top)
  else top

let srem a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some c when c <> 0L && c <> Int64.min_int ->
        let m = Int64.abs c in
        if nonneg a then
          { lo = Some 0L; hi = inner_min a.hi (Some (Int64.sub m 1L)) }
        else of_bounds (Int64.sub 1L m) (Int64.sub m 1L)
    | _ -> top

let urem a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some c when Int64.compare c 0L > 0 ->
        { lo = Some 0L; hi = Some (Int64.sub c 1L) }
    | _ -> top

(* x land m lies in [0, m] whenever m >= 0, regardless of x's sign *)
let logand a b =
  if is_empty a || is_empty b then a
  else
    let mask t =
      match (t.lo, t.hi) with
      | Some l, Some h when Int64.compare l 0L >= 0 -> Some h
      | _ -> None
    in
    match (mask a, mask b) with
    | Some m, Some m' ->
        { lo = Some 0L; hi = Some (if Int64.compare m m' <= 0 then m else m') }
    | Some m, None | None, Some m -> { lo = Some 0L; hi = Some m }
    | None, None -> top

let pow2_mask_above v =
  (* smallest 2^k - 1 >= v, for v >= 0 *)
  let rec go m =
    if Int64.compare m v >= 0 then m
    else if Int64.compare m (Int64.div Int64.max_int 2L) >= 0 then Int64.max_int
    else go (Int64.add (Int64.mul m 2L) 1L)
  in
  go 0L

let bitwise_up a b =
  if is_empty a || is_empty b then a
  else
    match (a.lo, a.hi, b.lo, b.hi) with
    | Some al, Some ah, Some bl, Some bh
      when Int64.compare al 0L >= 0 && Int64.compare bl 0L >= 0 ->
        let m = if Int64.compare ah bh >= 0 then ah else bh in
        { lo = Some 0L; hi = Some (pow2_mask_above m) }
    | _ -> top

let logor = bitwise_up
let logxor = bitwise_up

let shl a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some s when Int64.compare s 0L >= 0 && Int64.compare s 62L <= 0 ->
        mul a (const (Int64.shift_left 1L (Int64.to_int s)))
    | _ -> top

let lshr a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some s when Int64.compare s 0L >= 0 && Int64.compare s 63L <= 0 ->
        let s = Int64.to_int s in
        if s = 0 then a
        else if nonneg a then
          {
            lo = Option.map (fun v -> Int64.shift_right_logical v s) a.lo;
            hi = Option.map (fun v -> Int64.shift_right_logical v s) a.hi;
          }
        else { lo = Some 0L; hi = Some (Int64.shift_right_logical (-1L) s) }
    | _ -> top

let ashr a b =
  if is_empty a || is_empty b then a
  else
    match singleton b with
    | Some s when Int64.compare s 0L >= 0 && Int64.compare s 63L <= 0 ->
        let s = Int64.to_int s in
        {
          lo = Option.map (fun v -> Int64.shift_right v s) a.lo;
          hi = Option.map (fun v -> Int64.shift_right v s) a.hi;
        }
    | _ -> top

let signed_range width =
  let half = Int64.shift_left 1L ((8 * width) - 1) in
  of_bounds (Int64.neg half) (Int64.sub half 1L)

let unsigned_range width =
  of_bounds 0L (Int64.sub (Int64.shift_left 1L (8 * width)) 1L)

let within t r =
  match (t.lo, t.hi, r.lo, r.hi) with
  | Some tl, Some th, Some rl, Some rh ->
      Int64.compare tl rl >= 0 && Int64.compare th rh <= 0
  | _ -> false

let sext ~width t =
  if width >= 8 || is_empty t then t
  else if within t (signed_range width) then t
  else signed_range width

let zext ~width t =
  if width >= 8 || is_empty t then t
  else if within t (unsigned_range width) then t
  else unsigned_range width

let of_load ~width = if width >= 8 then top else unsigned_range width
let store_narrow ~width t = zext ~width t

let refine (op : Ir.Instr.icmp) ~taken lhs ~rhs =
  if is_empty lhs || is_empty rhs then lhs
  else
    let dec = function
      | Some v when v <> Int64.min_int -> Some (Int64.sub v 1L)
      | b -> b
    in
    let inc = function
      | Some v when v <> Int64.max_int -> Some (Int64.add v 1L)
      | b -> b
    in
    (* signed bounds: the rhs value is only known to lie somewhere in
       [rhs.lo, rhs.hi], so lhs < rhs only certifies lhs <= max(rhs)-1
       and lhs > rhs only certifies lhs >= min(rhs)+1 *)
    let le () = { lhs with hi = inner_min lhs.hi rhs.hi } in
    let lt () = { lhs with hi = inner_min lhs.hi (dec rhs.hi) } in
    let ge () = { lhs with lo = inner_max lhs.lo rhs.lo } in
    let gt () = { lhs with lo = inner_max lhs.lo (inc rhs.lo) } in
    match (op, taken) with
    | (Eq, true) | (Ne, false) -> meet lhs rhs
    | (Eq, false) | (Ne, true) -> (
        match singleton rhs with
        | Some c ->
            let lhs =
              if lhs.lo = Some c then { lhs with lo = inc lhs.lo } else lhs
            in
            if lhs.hi = Some c then { lhs with hi = dec lhs.hi } else lhs
        | None -> lhs)
    | Slt, true | Sge, false -> lt ()
    | Sle, true | Sgt, false -> le ()
    | Sgt, true | Sle, false -> gt ()
    | Sge, true | Slt, false -> ge ()
    (* unsigned comparisons: x <u c with c >= 0 (signed) pins x to
       [0, c-1] — any negative x is huge unsigned and fails the test *)
    | Ult, true ->
        if nonneg rhs then { lo = Some 0L; hi = inner_min lhs.hi (dec rhs.hi) }
        else lhs
    | Ule, true ->
        if nonneg rhs then { lo = Some 0L; hi = inner_min lhs.hi rhs.hi }
        else lhs
    | Ult, false ->
        (* x >=u c: meaningful signed refinement only for non-negative x *)
        if nonneg lhs && nonneg rhs then ge () else lhs
    | Ule, false -> if nonneg lhs && nonneg rhs then gt () else lhs

let contains t ~lo ~hi =
  if is_empty t then true
  else
    match (t.lo, t.hi) with
    | Some l, Some h -> Int64.compare l lo >= 0 && Int64.compare h hi <= 0
    | _ -> false

let pp fmt t =
  let b = function None -> "?" | Some v -> Int64.to_string v in
  if is_top t then Format.pp_print_string fmt "T"
  else Format.fprintf fmt "[%s,%s]" (b t.lo) (b t.hi)
