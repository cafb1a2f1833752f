(* Overflow-safe special functions used by the Fermi-Dirac machinery.

   Arguments of the form eta = E/kT reach magnitudes of ~10^3 at 150 K,
   where a naive exp overflows; every function here is total over the
   whole float range. *)

(* log(1 + exp x), the softplus function; equals the Fermi-Dirac
   integral of order 0 up to normalisation.  For large x the answer is
   x + log(1+exp(-x)) ~ x; for very negative x it is exp(x). *)
let log1p_exp x =
  if x > 35.0 then x +. log1p (exp (-.x))
  else if x < -35.0 then exp x
  else log1p (exp x)

(* Logistic sigmoid 1/(1 + exp x): the Fermi-Dirac occupation factor
   written as f(E - mu) = logistic ((E - mu)/kT). *)
let logistic x =
  if x >= 0.0 then begin
    let e = exp (-.x) in
    e /. (1.0 +. e)
  end
  else 1.0 /. (1.0 +. exp x)

(* Derivative of [logistic] with respect to x: -f(1-f), always
   computed in the stable half-plane. *)
let logistic' x =
  let f = logistic (Float.abs x) in
  -.(f *. (1.0 -. f))

(* Approximate float equality with both absolute and relative slack. *)
let approx_equal ?(atol = 1e-12) ?(rtol = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= atol || diff <= rtol *. Float.max (Float.abs a) (Float.abs b)
