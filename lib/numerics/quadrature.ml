(* One-dimensional numerical integration: adaptive Simpson, which the
   reference charge integrals (paper eqs. 2-3) and FETToy run on. *)

(* Adaptive Simpson with the classic Lyness error estimate.  Depth is
   bounded to keep pathological integrands from recursing forever; the
   tolerance halves on each side so the total error stays below [tol]. *)
let adaptive_simpson ?(tol = 1e-12) ?(max_depth = 40) f a b =
  let simpson_step fa fm fb a b = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  let rec refine a b fa fm fb whole tol depth =
    let m = 0.5 *. (a +. b) in
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson_step fa flm fm a m in
    let right = simpson_step fm frm fb m b in
    let err = left +. right -. whole in
    if depth <= 0 || Float.abs err <= 15.0 *. tol then
      left +. right +. (err /. 15.0)
    else
      refine a m fa flm fm left (0.5 *. tol) (depth - 1)
      +. refine m b fm frm fb right (0.5 *. tol) (depth - 1)
  in
  if a = b then 0.0
  else begin
    let fa = f a and fb = f b and fm = f (0.5 *. (a +. b)) in
    let whole = simpson_step fa fm fb a b in
    refine a b fa fm fb whole tol max_depth
  end
