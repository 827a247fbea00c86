type result = { attempts : int; succeeded : bool; verdicts : Verdict.t list }

let run ?(seed0 = 0) ~max_attempts attempt =
  let rec go i acc =
    if i >= max_attempts then
      { attempts = i; succeeded = false; verdicts = List.rev acc }
    else
      let v = attempt (seed0 + i) in
      if not (Verdict.blocked v) then
        { attempts = i + 1; succeeded = true; verdicts = List.rev (v :: acc) }
      else go (i + 1) (v :: acc)
  in
  go 0 []

let attempts_to_success verdicts =
  let rec go n = function
    | [] -> None
    | Verdict.Success :: _ -> Some n
    | _ :: rest -> go (n + 1) rest
  in
  go 1 verdicts
