(* Sampling grids over closed intervals. *)

let linspace a b n =
  if n <= 0 then invalid_arg "Grid.linspace: n must be positive";
  if n = 1 then [| a |]
  else begin
    let step = (b -. a) /. float_of_int (n - 1) in
    Array.init n (fun i ->
        if i = n - 1 then b else a +. (float_of_int i *. step))
  end

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Grid.logspace: endpoints must be positive";
  Array.map exp (linspace (log a) (log b) n)

let map2 f xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Grid.map2: length mismatch";
  Array.init n (fun i -> f xs.(i) ys.(i))

(* Index of the last element of sorted array [xs] that is <= [x], or -1
   when [x] is below every element.  Binary search; [xs] must be sorted
   ascending. *)
let bracket xs x =
  let n = Array.length xs in
  if n = 0 || x < xs.(0) then -1
  else if x >= xs.(n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: xs.(lo) <= x < xs.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let is_sorted xs =
  let n = Array.length xs in
  let rec go i = i >= n - 1 || (xs.(i) <= xs.(i + 1) && go (i + 1)) in
  go 0
