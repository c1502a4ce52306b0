(* The single-threaded load generator. Virtual respondents are
   multiplexed over at most two connections and replies are correlated
   by the echoed request id, so the generator never needs a thread per
   respondent. Request [i] of a run carries id [i + 1]. *)

type mode =
  | Closed of int  (** virtual respondents per connection *)
  | Open  (** flows start at their planned arrival times *)

type run = {
  flow_of : int array;  (** request -> flow, or -1 for a hot swap *)
  step_of : int array;
  intended : float array;  (** when the request was due to be sent *)
  latency : float array;  (** seconds, nan when unanswered *)
  replies : string array;
  mutable sent : int;
  mutable first_send : float;
  mutable last_reply : float;
  mutable late_max : float;  (** worst lateness of a scheduled send, s *)
  mutable timed_out : bool;
}

(* A run that has not finished after this long is abandoned as timed out. *)
let deadline_s = 150.

let run (plan : Plan.t) conns mode =
  let nflows = Array.length plan.Plan.flows in
  let capacity = Plan.requests plan in
  let r =
    {
      flow_of = Array.make capacity (-1);
      step_of = Array.make capacity 0;
      intended = Array.make capacity 0.;
      latency = Array.make capacity Float.nan;
      replies = Array.make capacity "";
      sent = 0;
      first_send = 0.;
      last_reply = 0.;
      late_max = 0.;
      timed_out = false;
    }
  in
  let session = Array.make nflows "" in
  let option = Array.make nflows 0 in
  let conn_of = Array.make nflows 0 in
  let outstanding = ref 0 in
  let send ~conn ~flow ~step ~due line =
    let i = r.sent in
    r.sent <- i + 1;
    r.flow_of.(i) <- flow;
    r.step_of.(i) <- step;
    r.intended.(i) <- due;
    incr outstanding;
    Conn.send conns.(conn) (line (i + 1))
  in
  let send_step f k ~due =
    let step = plan.Plan.flows.(f).Plan.steps.(k) in
    send ~conn:conn_of.(f) ~flow:f ~step:k ~due (fun id ->
        Plan.line ~id ~session:session.(f) ~option:option.(f) step)
  in
  let next_flow = ref 0 in
  let start_flow ~conn ~due =
    if !next_flow < nflows then begin
      let f = !next_flow in
      incr next_flow;
      conn_of.(f) <- conn;
      send_step f 0 ~due
    end
  in
  let flows_done = ref 0 in
  let swaps_sent = ref 0 in
  let on_reply line =
    let now = Unix.gettimeofday () in
    let id = Reply.id line in
    if id >= 1 && id <= r.sent && Float.is_nan r.latency.(id - 1) then begin
      let i = id - 1 in
      decr outstanding;
      r.latency.(i) <- now -. r.intended.(i);
      r.replies.(i) <- line;
      r.last_reply <- now;
      let f = r.flow_of.(i) in
      if f >= 0 then begin
        let k = r.step_of.(i) in
        let steps = plan.Plan.flows.(f).Plan.steps in
        let ok = Reply.is_ok line in
        let continues =
          ok
          &&
          match steps.(k) with
          | Plan.Open_digest _ | Plan.Open_tenant _ -> (
            match Reply.string_field line "session" with
            | Some s ->
              session.(f) <- s;
              true
            | None -> false)
          | Plan.Get_report _ ->
            option.(f) <- Reply.recommended line;
            true
          | _ -> true
        in
        if continues && k + 1 < Array.length steps then
          send_step f (k + 1) ~due:now
        else begin
          incr flows_done;
          match mode with
          | Closed _ -> start_flow ~conn:conn_of.(f) ~due:now
          | Open -> ()
        end
      end
    end
  in
  let t0 = Unix.gettimeofday () in
  r.first_send <- t0;
  let deadline = t0 +. deadline_s in
  (match mode with
  | Closed per_conn ->
    for _ = 1 to per_conn do
      Array.iteri (fun c _ -> start_flow ~conn:c ~due:t0) conns
    done
  | Open -> ());
  let swaps = plan.Plan.swaps in
  let rec loop () =
    let now = Unix.gettimeofday () in
    (* Open loop: send everything that has come due, stamped with the
       time it was due, so a stalled server charges its queue to every
       request that waited behind it. *)
    (match mode with
    | Open ->
      let rec arrivals () =
        if !next_flow < nflows then begin
          let due = t0 +. plan.Plan.flows.(!next_flow).Plan.at in
          if due <= now then begin
            r.late_max <- Float.max r.late_max (now -. due);
            start_flow ~conn:(!next_flow mod Array.length conns) ~due;
            arrivals ()
          end
        end
      in
      arrivals ();
      let rec swap_due () =
        if !swaps_sent < Array.length swaps then begin
          let s = swaps.(!swaps_sent) in
          let due = t0 +. s.Plan.swap_at in
          if due <= now then begin
            incr swaps_sent;
            r.late_max <- Float.max r.late_max (now -. due);
            send ~conn:0 ~flow:(-1) ~step:0 ~due (fun id ->
                Plan.update_line ~id ~tenant:s.Plan.tenant ~rules:s.Plan.rules);
            swap_due ()
          end
        end
      in
      swap_due ()
    | Closed _ -> ());
    let finished =
      !flows_done >= nflows && !outstanding = 0
      && !swaps_sent >= (match mode with Open -> Array.length swaps | Closed _ -> 0)
    in
    if finished then ()
    else if now > deadline || Array.exists (fun c -> c.Conn.eof) conns then
      r.timed_out <- true
    else begin
      let next_due =
        match mode with
        | Closed _ -> Float.infinity
        | Open ->
          Float.min
            (if !next_flow < nflows then t0 +. plan.Plan.flows.(!next_flow).Plan.at
             else Float.infinity)
            (if !swaps_sent < Array.length swaps then
               t0 +. swaps.(!swaps_sent).Plan.swap_at
             else Float.infinity)
      in
      let timeout = Float.max 0. (Float.min 0.5 (next_due -. now)) in
      let rfds = Array.to_list (Array.map (fun c -> c.Conn.rfd) conns) in
      let wfds =
        Array.to_list conns
        |> List.filter Conn.pending
        |> List.map (fun c -> c.Conn.wfd)
      in
      (match Unix.select rfds wfds [] timeout with
      | rs, ws, _ ->
        Array.iter
          (fun c ->
            if List.memq c.Conn.wfd ws then Conn.flush c;
            if List.memq c.Conn.rfd rs then Conn.read c on_reply)
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  r
