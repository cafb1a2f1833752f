(* Error metrics and summary statistics for model comparison. *)

exception Empty of string

let check name xs = if Array.length xs = 0 then raise (Empty name)

let mean xs =
  check "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check "Stats.variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  acc /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let rms xs =
  check "Stats.rms" xs;
  let acc = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  sqrt (acc /. float_of_int (Array.length xs))

let max_abs xs =
  check "Stats.max_abs" xs;
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 xs

let minimum xs =
  check "Stats.minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  check "Stats.maximum" xs;
  Array.fold_left Float.max xs.(0) xs

(* RMS of pointwise differences between two curves. *)
let rms_error reference approx =
  if Array.length reference <> Array.length approx then
    invalid_arg "Stats.rms_error: length mismatch";
  rms (Grid.map2 (fun r a -> r -. a) reference approx)

(* The paper's accuracy metric: RMS error normalised by the RMS of the
   reference curve, expressed as a fraction (multiply by 100 for %).
   Normalising by the reference RMS rather than pointwise values keeps
   near-zero reference points from dominating the metric. *)
let relative_rms_error reference approx =
  let e = rms_error reference approx in
  let scale = rms reference in
  if scale = 0.0 then (if e = 0.0 then 0.0 else infinity) else e /. scale

let percentile xs p =
  check "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0
