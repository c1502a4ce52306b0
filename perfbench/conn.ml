(* A non-blocking line connection: a pipe pair to a [pet serve --stdio]
   child or one TCP socket. Writes never block the single-threaded load
   generator (pending bytes wait for the descriptor to turn writable),
   so a stalled server can never deadlock the generator against its own
   full output pipe. *)

type t = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable opos : int;
  ibuf : Bytes.t;
  partial : Buffer.t;
  mutable eof : bool;
}

let create ~rfd ~wfd =
  Unix.set_nonblock wfd;
  {
    rfd;
    wfd;
    obuf = Bytes.create 65536;
    olen = 0;
    opos = 0;
    ibuf = Bytes.create 65536;
    partial = Buffer.create 4096;
    eof = false;
  }

let pending t = t.olen > t.opos

let flush t =
  let rec go () =
    if t.opos < t.olen then
      match Unix.single_write t.wfd t.obuf t.opos (t.olen - t.opos) with
      | n ->
        t.opos <- t.opos + n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
  in
  go ();
  if t.opos = t.olen then begin
    t.opos <- 0;
    t.olen <- 0
  end

let send t line =
  let n = String.length line + 1 in
  if t.olen + n > Bytes.length t.obuf then begin
    let live = t.olen - t.opos in
    let size = max (Bytes.length t.obuf) (2 * (live + n)) in
    let b = Bytes.create size in
    Bytes.blit t.obuf t.opos b 0 live;
    t.obuf <- b;
    t.olen <- live;
    t.opos <- 0
  end;
  Bytes.blit_string line 0 t.obuf t.olen (n - 1);
  Bytes.set t.obuf (t.olen + n - 1) '\n';
  t.olen <- t.olen + n;
  flush t

(* Read what is available and hand every complete line to [f]. *)
let read t f =
  match Unix.read t.rfd t.ibuf 0 (Bytes.length t.ibuf) with
  | 0 -> t.eof <- true
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get t.ibuf i = '\n' then begin
        let line =
          if Buffer.length t.partial = 0 then Bytes.sub_string t.ibuf !start (i - !start)
          else begin
            Buffer.add_subbytes t.partial t.ibuf !start (i - !start);
            let l = Buffer.contents t.partial in
            Buffer.clear t.partial;
            l
          end
        in
        start := i + 1;
        f line
      end
    done;
    if !start < n then Buffer.add_subbytes t.partial t.ibuf !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> t.eof <- true

(* Block until [n] lines arrived, or [None] at end of stream or after
   120 s (setup and teardown exchanges, outside timed windows).
   Pending output keeps draining meanwhile. *)
let recv_lines t n =
  let deadline = Unix.gettimeofday () +. 120. in
  let got = ref [] and count = ref 0 in
  let rec go () =
    if !count >= n then Some (List.rev !got)
    else if t.eof || Unix.gettimeofday () > deadline then None
    else begin
      (match
         Unix.select [ t.rfd ] (if pending t then [ t.wfd ] else []) [] 1.
       with
      | r, w, _ ->
        if w <> [] then flush t;
        if r <> [] then
          read t (fun l ->
              got := l :: !got;
              incr count)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* One request/response exchange. *)
let call t line =
  send t line;
  match recv_lines t 1 with Some [ l ] -> Some l | _ -> None
