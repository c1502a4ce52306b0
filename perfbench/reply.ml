(* Cheap scans over response lines. The load generator shares the
   machine with the server, so it reads only what the flow needs next
   (the id, a session id, the recommended option) and leaves full
   checks for after the timed window. *)

let find s sub from =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j = n || (String.unsafe_get s (i + j) = String.unsafe_get sub j && matches i (j + 1)) in
  let rec at i = if i + n > m then -1 else if matches i 0 then i else at (i + 1) in
  at from

let head = {|{"pet":1,"id":|}

(* The echoed integer id, or -1. *)
let id line =
  let n = String.length head in
  if String.length line <= n || String.sub line 0 n <> head then -1
  else
    let rec digits i acc =
      if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
        digits (i + 1) ((10 * acc) + Char.code line.[i] - 48)
      else if i = n then -1
      else acc
    in
    digits n 0

(* Offset of the result field: just past the id and the optional
   trace id, at [,"ok":] or [,"error":]. *)
let result_at line =
  let i = String.length head in
  let rec skip_digits i =
    if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
      skip_digits (i + 1)
    else i
  in
  let i = skip_digits i in
  let trace = {|,"trace":"|} in
  if find line trace i = i then
    match String.index_from_opt line (i + String.length trace) '"' with
    | Some q -> q + 1
    | None -> -1
  else i

let ok_tag = {|,"ok":|}
let error_tag = {|,"error":{"code":"|}

let is_ok line =
  let i = result_at line in
  i >= 0 && find line ok_tag i = i

(* The error code of an error response, or "" for anything else. *)
let error_code line =
  let i = result_at line in
  if i >= 0 && find line error_tag i = i then
    let s = i + String.length error_tag in
    match String.index_from_opt line s '"' with
    | Some q -> String.sub line s (q - s)
    | None -> ""
  else ""

(* The bytes of an ok response's result. *)
let payload line =
  let i = result_at line + String.length ok_tag in
  String.sub line i (String.length line - i - 1)

let string_field line key =
  let tag = Printf.sprintf {|"%s":"|} key in
  match find line tag 0 with
  | -1 -> None
  | i -> (
    let s = i + String.length tag in
    match String.index_from_opt line s '"' with
    | Some q -> Some (String.sub line s (q - s))
    | None -> None)

(* Index of the recommended option in a get_report result: every
   option carries exactly one "recommended" flag, in list order. *)
let recommended line =
  let tag = {|"recommended":|} in
  let rec go from k =
    match find line tag from with
    | -1 -> 0
    | i ->
      let v = i + String.length tag in
      if v + 4 <= String.length line && String.sub line v 4 = "true" then k
      else go v (k + 1)
  in
  go 0 0
