type result = { attempts : int; succeeded : bool; verdicts : Verdict.t list }

let run ~max_attempts attempt =
  let rec go i acc =
    if i >= max_attempts then
      { attempts = i; succeeded = false; verdicts = List.rev acc }
    else
      let v = attempt i in
      if not (Verdict.blocked v) then
        { attempts = i + 1; succeeded = true; verdicts = List.rev (v :: acc) }
      else go (i + 1) (v :: acc)
  in
  go 0 []
