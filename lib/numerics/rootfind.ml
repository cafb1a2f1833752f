(* Scalar root finding over an interval or from an initial guess. *)

exception No_bracket of string
exception Not_converged of string

type result = {
  root : float;
  iterations : int;
  residual : float;
}

let check_bracket name f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then Some a
  else if fb = 0.0 then Some b
  else if fa *. fb > 0.0 then
    raise
      (No_bracket
         (Printf.sprintf "%s: f(%g)=%g and f(%g)=%g have the same sign" name a
            fa b fb))
  else None

let bisect ?(tol = 1e-14) ?(max_iter = 200) f a b =
  match check_bracket "Rootfind.bisect" f a b with
  | Some r -> { root = r; iterations = 0; residual = 0.0 }
  | None ->
      let a = ref a and b = ref b in
      let fa = ref (f !a) in
      let i = ref 0 in
      while !i < max_iter && Float.abs (!b -. !a) > tol *. Float.max 1.0 (Float.abs !a) do
        incr i;
        let m = 0.5 *. (!a +. !b) in
        let fm = f m in
        if fm = 0.0 then begin
          a := m;
          b := m
        end
        else if !fa *. fm < 0.0 then b := m
        else begin
          a := m;
          fa := fm
        end
      done;
      let r = 0.5 *. (!a +. !b) in
      { root = r; iterations = !i; residual = f r }

(* Newton guarded by a bracket: falls back to bisection whenever the
   Newton step leaves the interval or fails to shrink it fast enough.
   This is the solver used by the FETToy reference model. *)
let newton_bracketed ?(tol = 1e-14) ?(max_iter = 200) ~f ~f' a b =
  match check_bracket "Rootfind.newton_bracketed" f a b with
  | Some r -> { root = r; iterations = 0; residual = 0.0 }
  | None ->
      let lo = ref (Float.min a b) and hi = ref (Float.max a b) in
      let flo = ref (f !lo) in
      let x = ref (0.5 *. (!lo +. !hi)) in
      let result = ref None in
      let iter = ref 0 in
      while !result = None && !iter < max_iter do
        incr iter;
        let fx = f !x in
        if fx = 0.0 then
          result := Some { root = !x; iterations = !iter; residual = 0.0 }
        else begin
          (* maintain the bracket *)
          if !flo *. fx < 0.0 then hi := !x
          else begin
            lo := !x;
            flo := fx
          end;
          let dfx = f' !x in
          let x' = if dfx = 0.0 then nan else !x -. (fx /. dfx) in
          let x' =
            if Float.is_nan x' || x' <= !lo || x' >= !hi then
              0.5 *. (!lo +. !hi)
            else x'
          in
          if Float.abs (x' -. !x) <= tol *. Float.max 1.0 (Float.abs x') then
            result := Some { root = x'; iterations = !iter; residual = f x' }
          else x := x'
        end
      done;
      (match !result with
      | Some r -> r
      | None ->
          raise
            (Not_converged
               (Printf.sprintf "Rootfind.newton_bracketed: %d iterations" max_iter)))
