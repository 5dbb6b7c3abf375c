(* Two-sample checks that two ways of drawing a random quantity share
   its law: means within 4 standard errors, category frequencies within
   a chi-squared bound at p = 0.001.  The samples come from fixed seed
   lists, so each check is deterministic. *)

let mean_se xs =
  let n = float_of_int (List.length xs) in
  let m = List.fold_left (fun a x -> a +. float_of_int x) 0.0 xs /. n in
  let ss =
    List.fold_left (fun a x -> a +. ((float_of_int x -. m) ** 2.0)) 0.0 xs
  in
  (m, sqrt (ss /. (n -. 1.0) /. n))

let check_means what a b =
  let ma, sa = mean_se a and mb, sb = mean_se b in
  let bound = 4.0 *. sqrt ((sa *. sa) +. (sb *. sb)) in
  if Float.abs (ma -. mb) > bound then
    Alcotest.failf "%s: mean %.3f vs %.3f, beyond 4 standard errors (%.3f)"
      what ma mb bound

(* chi-squared quantiles at p = 0.001 for 1..15 degrees of freedom *)
let chi2_crit =
  [| 10.83; 13.82; 16.27; 18.47; 20.52; 22.46; 24.32; 26.12; 27.88; 29.59;
     31.26; 32.91; 34.53; 36.12; 37.70 |]

(* Two-sample homogeneity over the categories either sample hits. *)
let check_frequencies what a b =
  let cats = List.sort_uniq compare (a @ b) in
  let df = List.length cats - 1 in
  if df > Array.length chi2_crit then
    Alcotest.failf "%s: %d categories, too many to bound" what (df + 1);
  let na = float_of_int (List.length a) and nb = float_of_int (List.length b) in
  let count c l = float_of_int (List.length (List.filter (( = ) c) l)) in
  let x =
    List.fold_left
      (fun acc c ->
        let oa = count c a and ob = count c b in
        let ea = (oa +. ob) *. na /. (na +. nb)
        and eb = (oa +. ob) *. nb /. (na +. nb) in
        acc +. (((oa -. ea) ** 2.0) /. ea) +. (((ob -. eb) ** 2.0) /. eb))
      0.0 cats
  in
  if df > 0 && x > chi2_crit.(df - 1) then
    Alcotest.failf "%s: chi-squared %.2f > %.2f (%d degrees of freedom)" what
      x chi2_crit.(df - 1) df
