(* The benchmark's own arithmetic: order statistics, failure shares and
   pooled ratios. Kept free of any simulator dependency so the tests can
   pin it down exactly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator):
   p = 0 is the minimum, p = 100 the maximum. *)
let percentile p xs =
  if xs = [] then invalid_arg "Arith.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Arith.percentile: p outside 0..100";
  let a = sorted xs in
  let n = Array.length a in
  let h = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* Samples ranked strictly above the p-th percentile's nearest rank. *)
let beyond ~n p = n - int_of_float (Float.ceil (float_of_int n *. p /. 100.0))

let tail_candidates = [ 99.9; 99.0; 90.0; 50.0 ]

let tail_percentile ~n =
  List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates

let fail_share ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Arith.fail_share: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Arith.fail_share: failed outside 0..attempted";
  float_of_int failed /. float_of_int attempted

(* Sum of numerators over sum of denominators, over the pairs whose
   denominator is positive: a unit that executed no RPC adds neither
   time nor RPCs to a per-RPC cost. *)
let pooled pairs =
  let num, den =
    List.fold_left
      (fun (n, d) (x, y) -> if y > 0.0 then (n +. x, d +. y) else (n, d))
      (0.0, 0.0) pairs
  in
  if den > 0.0 then Some (num /. den) else None
