(* The escalating retry ladder.  See the interface for the contract; the
   only subtlety here is saturation: budgets are habitually [max_int], so
   every multiplication and power clamps instead of overflowing. *)

(* Each rung's budget and time share is this many times the previous
   rung's. *)
let growth = 4

let is_final ~retries ~attempt = attempt > retries

let mul_sat a b =
  if a <= 0 || b <= 0 then 0
  else if a > max_int / b then max_int
  else a * b

let pow_sat base n =
  let rec go acc n = if n <= 0 then acc else go (mul_sat acc base) (n - 1) in
  go 1 n

(* The first rung: total divided down by growth^retries, so the whole
   ladder (a geometric series summing to roughly total) stays within the
   pool even if every rung runs dry.  Never below one conflict. *)
let first_budget ~retries ~total = max 1 (total / pow_sat growth retries)

let attempt_budget ~retries ~total ~remaining ~attempt =
  if is_final ~retries ~attempt then remaining
  else
    min remaining
      (mul_sat (first_budget ~retries ~total) (pow_sat growth (attempt - 1)))

let slice_deadline ~retries ~now ~hard ~tasks_left ~attempt =
  match hard with
  | None -> None
  | Some h ->
      if is_final ~retries ~attempt then Some h
      else
        let share = (h -. now) /. float_of_int (max 1 tasks_left) in
        let share = share *. float_of_int (pow_sat growth (attempt - 1)) in
        Some (min h (now +. share))
