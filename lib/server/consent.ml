(* Consent-lifecycle state: one entry per session that has (or had)
   something at stake — an archived grant, a revocation, an expiry
   horizon. Entries hold identifiers only (session id, ledger key,
   grant id), never a form, so keeping them for the lifetime of the
   archive costs nothing privacy-wise and lets a respondent revoke long
   after the session itself was swept.

   Like the grant ledgers, one store is shared across every shard of a
   sharded deployment (a revocation must reach the grant wherever it
   was recorded). The mutex guards the table and the horizon index:
   exactly the armed entries, ordered by (expires_at, session), so
   finding what is due costs O(hits + log n) however large the archive.
   [revoke], [set_horizon] and [note_expired], the only writers of the
   arming fields, keep the index in step; other fields are written only
   by the session's owning shard (requests route by session id). Two
   shards may apply the same due entry; tombstoning is idempotent. *)

type entry = {
  session : string;
  mutable key : string;  (* the ledger the grant lives in; "" until known *)
  mutable tenant : string option;
  mutable grant_id : int option;
  mutable revoked_at : float option;
  mutable horizon : (float * float) option;  (* (expires_at, set_at) *)
  mutable expired : bool;  (* the horizon was applied: grant tombstoned *)
}

type counters = { tracked : int; revoked : int; expired : int; pending : int }

module Horizons = Map.Make (struct
  type t = float * string

  let compare (h, s) (h', s') =
    match Float.compare h h' with 0 -> String.compare s s' | c -> c
end)

type t = {
  m : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable armed : entry Horizons.t;  (* keyed by (expires_at, session) *)
  mutable pending : int;  (* cardinal of [armed] *)
  mutable revoked : int;
  mutable expired : int;
}

let create () =
  {
    m = Mutex.create ();
    entries = Hashtbl.create 16;
    armed = Horizons.empty;
    pending = 0;
    revoked = 0;
    expired = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t session = locked t (fun () -> Hashtbl.find_opt t.entries session)

let register t ~session ?(key = "") ?tenant () =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries session with
  | Some entry ->
    (* A keyless entry (a revocation replayed before any grant was
       seen) learns its ledger key from the first caller that knows
       it. *)
    if entry.key = "" && key <> "" then begin
      entry.key <- key;
      entry.tenant <- tenant
    end;
    entry
  | None ->
    let entry =
      {
        session;
        key;
        tenant;
        grant_id = None;
        revoked_at = None;
        horizon = None;
        expired = false;
      }
    in
    Hashtbl.add t.entries session entry;
    entry

let note_granted (entry : entry) grant_id = entry.grant_id <- Some grant_id

(* The index key of an armed entry: unexpired, unrevoked, horizon set. *)
let slot (entry : entry) =
  match entry.horizon with
  | Some (h, _) when (not entry.expired) && entry.revoked_at = None ->
    Some (h, entry.session)
  | _ -> None

(* Mutate an entry's arming fields under the lock, moving it out of and
   back into the index around the change. *)
let rearm t entry f =
  locked t @@ fun () ->
  Option.iter
    (fun k ->
      t.armed <- Horizons.remove k t.armed;
      t.pending <- t.pending - 1)
    (slot entry);
  f ();
  Option.iter
    (fun k ->
      t.armed <- Horizons.add k entry t.armed;
      t.pending <- t.pending + 1)
    (slot entry)

let revoke t (entry : entry) ~at =
  rearm t entry @@ fun () ->
  if entry.revoked_at = None then begin
    entry.revoked_at <- Some at;
    t.revoked <- t.revoked + 1
  end

let set_horizon t (entry : entry) ~horizon ~at =
  rearm t entry @@ fun () ->
  entry.horizon <- Some (horizon, at);
  entry.expired <- false

let note_expired t (entry : entry) =
  rearm t entry @@ fun () ->
  if not entry.expired then begin
    entry.expired <- true;
    t.expired <- t.expired + 1
  end

(* The earliest armed entries whose horizon has passed, at most
   [budget] of them, read off the low end of the index. The caller
   tombstones each returned entry's grant and then [note_expired]s it —
   kept outside this call so the ledger lock is never taken under the
   consent lock. *)
let take ~budget t ~now =
  locked t @@ fun () ->
  let rec go n seq acc =
    match seq () with
    | Seq.Cons (((h, _), entry), rest) when n > 0 && h <= now ->
      go (n - 1) rest (entry :: acc)
    | _ -> List.rev acc
  in
  go budget (Horizons.to_seq t.armed) []

let due ?(budget = 32) t ~now = take ~budget t ~now

(* Every due entry, regardless of budget — the post-recovery pass that
   applies whatever horizons the crash interrupted. *)
let all_due t ~now = take ~budget:max_int t ~now

let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun _ entry acc -> entry :: acc) t.entries [])
  |> List.sort (fun a b ->
         compare
           (String.length a.session, a.session)
           (String.length b.session, b.session))

let counters t =
  locked t @@ fun () ->
  {
    tracked = Hashtbl.length t.entries;
    revoked = t.revoked;
    expired = t.expired;
    pending = t.pending;
  }
