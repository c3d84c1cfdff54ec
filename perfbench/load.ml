(* The load process of the served workloads: an open-loop client over
   [Kv.Protocol], one thread driving [nproc] connections.

   Every request has a due time fixed before the phase starts (Poisson
   arrivals at a fixed offered rate).  A connection sends each request
   when it falls due, whatever is still in flight, and its latency is
   measured from the due time, so a stall delays every request behind
   it and shows in the tail.  How late sends actually left is recorded
   as the generator's own lag. *)

open Common
module Protocol = Kv.Protocol

type plan = {
  n : int;
  secs : float;
  due : int array;  (* ns after the phase start *)
  kind : int array;  (* 0 get, 1 put, 2 remove *)
  key : int array;
  ver : int array;  (* the version a put writes *)
  conn : int array;  (* key mod connections: keys are partitioned *)
}

(* [first_ver] keeps put versions unique across phases, so a stale
   value can never pass for a fresh one. *)
let make_plan ~seed ~profile ~rate ~secs ~conns ~first_ver =
  let n = max 1 (int_of_float (rate *. secs)) in
  let ops = Harness.Trace.generate ~seed profile n in
  let rng = Rng.create (seed lxor 0x0F3E_A1) in
  let t = ref 0.0 in
  let due =
    Array.init n (fun _ ->
        let d = int_of_float !t in
        t := !t -. (log (1.0 -. Rng.next_float rng) /. rate *. 1e9);
        d)
  in
  let kind = Array.make n 0 and key = Array.make n 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Harness.Trace.Lookup k -> key.(i) <- k
      | Insert (k, _) ->
          kind.(i) <- 1;
          key.(i) <- k
      | Remove k ->
          kind.(i) <- 2;
          key.(i) <- k)
    ops;
  {
    n;
    secs;
    due;
    kind;
    key;
    ver = Array.init n (fun i -> first_ver + i);
    conn = Array.map (fun k -> k mod conns) key;
  }

type results = {
  reply : Protocol.reply option array;
  sent : int array;  (* when the send left, absolute ns *)
  recv : int array;  (* when the reply arrived, absolute ns *)
  start : int;  (* absolute ns of due time 0 *)
  mutable stray : int;  (* replies for unknown, foreign or answered ids *)
  encode_ns : Buf.t;  (* traced runs: request encode times *)
  decode_ns : Buf.t;
  send_ns : Buf.t;  (* traced runs: the write syscall *)
}

let op_of p i =
  let k = p.key.(i) in
  match p.kind.(i) with
  | 0 -> Protocol.Get k
  | 1 -> Protocol.Put (k, value_of ~len:kv_value_len k p.ver.(i))
  | _ -> Protocol.Remove k

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  fd

(* Replies still missing this long after the last send count as
   drops. *)
let grace_ns = 10_000_000_000

(* In a traced run, one request in [sample_every] carries a sampled
   trace context. *)
let sample_every = 8

(* The last stretch before a due time is spent polling the sockets
   rather than asleep, so a send leaves on time instead of when the
   scheduler next wakes the thread. *)
let spin_s = 200e-6

(* One connection's receive side. *)
type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable dead : bool;
}

(* One phase, on one thread: requests leave in due order on their key's
   connection, and replies are read from every connection while the
   next request is not yet due.  A single thread keeps the generator
   off the second core and out of stop-the-world waits between
   domains. *)
let run_phase ~fds ~(p : plan) ~traced =
  Gc.full_major ();
  let r =
    {
      reply = Array.make p.n None;
      sent = Array.make p.n 0;
      recv = Array.make p.n 0;
      start = Clock.monotonic_ns () + 5_000_000;
      stray = 0;
      encode_ns = Buf.create ();
      decode_ns = Buf.create ();
      send_ns = Buf.create ();
    }
  in
  let conns =
    Array.map (fun fd -> { fd; rbuf = Bytes.create 65536; rlen = 0; dead = false }) fds
  in
  ignore (Common.set_timerslack_ns 1);
  let got = ref 0 in
  let on_payload c payload now =
    let res =
      if traced then begin
        let t0 = Clock.monotonic_ns () in
        let res = Protocol.decode_reply payload in
        Buf.add r.decode_ns (Clock.monotonic_ns () - t0);
        res
      end
      else Protocol.decode_reply payload
    in
    match res with
    | Ok (id, rep) when id < p.n && p.conn.(id) = c && r.reply.(id) = None ->
        r.reply.(id) <- Some rep;
        r.recv.(id) <- now;
        incr got
    | _ -> r.stray <- r.stray + 1
  in
  let parse c cn =
    let now = Clock.monotonic_ns () in
    let off = ref 0 and continue = ref true in
    while !continue do
      let avail = cn.rlen - !off in
      if avail >= 4 then begin
        let len = Int32.to_int (Bytes.get_int32_be cn.rbuf !off) in
        if avail - 4 >= len then begin
          on_payload c (Bytes.sub cn.rbuf (!off + 4) len) now;
          off := !off + 4 + len
        end
        else continue := false
      end
      else continue := false
    done;
    if !off > 0 then begin
      Bytes.blit cn.rbuf !off cn.rbuf 0 (cn.rlen - !off);
      cn.rlen <- cn.rlen - !off
    end
  in
  let read_some c =
    let cn = conns.(c) and continue = ref true in
    while !continue && not cn.dead do
      if cn.rlen = Bytes.length cn.rbuf then begin
        let b = Bytes.create (2 * cn.rlen) in
        Bytes.blit cn.rbuf 0 b 0 cn.rlen;
        cn.rbuf <- b
      end;
      match Unix.read cn.fd cn.rbuf cn.rlen (Bytes.length cn.rbuf - cn.rlen) with
      | 0 -> cn.dead <- true
      | k ->
          cn.rlen <- cn.rlen + k;
          parse c cn
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> cn.dead <- true
    done
  in
  let live () =
    Array.to_list conns |> List.filter (fun cn -> not cn.dead) |> List.map (fun cn -> cn.fd)
  in
  let read_ready ?(write = []) timeout =
    match Unix.select (live ()) write [] timeout with
    | rd, _, _ ->
        Array.iteri (fun c cn -> if List.mem cn.fd rd then read_some c) conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  in
  let write_all c b =
    let cn = conns.(c) in
    let len = Bytes.length b and off = ref 0 in
    while !off < len && not cn.dead do
      match Unix.write cn.fd b !off (len - !off) with
      | k -> off := !off + k
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          read_ready ~write:[ cn.fd ] 0.01
      | exception Unix.Unix_error _ -> cn.dead <- true
    done
  in
  (* Requests that fall due together leave in one write per
     connection; each is stamped with the time its write began. *)
  let out = Array.map (fun _ -> Buffer.create 4096) fds in
  let batch = Array.map (fun _ -> Buf.create ()) fds in
  let queue i =
    let trace =
      if traced && i mod sample_every = 0 then Obs.Trace.make ~sampled:true (i + 1)
      else Obs.Trace.none
    in
    let req = { Protocol.id = i; deadline_ns = 0; op = op_of p i; trace } in
    let frame =
      if traced then begin
        let t0 = Clock.monotonic_ns () in
        let f = Protocol.encode_request req in
        Buf.add r.encode_ns (Clock.monotonic_ns () - t0);
        f
      end
      else Protocol.encode_request req
    in
    let c = p.conn.(i) in
    Buffer.add_bytes out.(c) frame;
    Buf.add batch.(c) i
  in
  let flush_out () =
    Array.iteri
      (fun c b ->
        if Buffer.length b > 0 then begin
          let t0 = Clock.monotonic_ns () in
          let ids = batch.(c) in
          for j = 0 to ids.Buf.n - 1 do
            r.sent.(ids.Buf.a.(j)) <- t0
          done;
          write_all c (Buffer.to_bytes b);
          if traced then Buf.add r.send_ns (Clock.monotonic_ns () - t0);
          Buffer.clear b;
          ids.Buf.n <- 0
        end)
      out
  in
  let next = ref 0 and last_send = ref max_int in
  while
    live () <> []
    && (!next < p.n || (!got < p.n && Clock.monotonic_ns () - !last_send < grace_ns))
  do
    let now = Clock.monotonic_ns () in
    while !next < p.n && r.start + p.due.(!next) <= now do
      queue !next;
      incr next
    done;
    flush_out ();
    if !next = p.n && !last_send = max_int then last_send := Clock.monotonic_ns ();
    let timeout =
      if !next < p.n then
        float_of_int (r.start + p.due.(!next) - Clock.monotonic_ns ()) /. 1e9
      else 0.05
    in
    if timeout > spin_s then read_ready (timeout -. spin_s)
    else Array.iteri (fun c cn -> if not cn.dead then read_some c) conns
  done;
  r

(* ------------------------------- checking -------------------------- *)

(* Replays a phase's replies, in send order, against a sequential model
   of the store: [model.(k)] is the version [k] holds, -1 if unbound.
   Keys are partitioned by connection and a connection's requests on
   one key execute in the order it sent them, so every answered request
   has exactly one right reply.  Refused requests did not execute and
   leave the model alone.  Returns the number of wrong replies. *)
let check_phase ~model ~(p : plan) ~(r : results) =
  let wrong = ref 0 in
  for i = 0 to p.n - 1 do
    let k = p.key.(i) in
    let cur = model.(k) in
    let bad () = incr wrong in
    match (Arith.outcome_of_reply r.reply.(i), r.reply.(i)) with
    | Arith.Refused, _ -> ()
    | Dropped, _ | Answered, None -> bad ()
    | Answered, Some rep -> (
        match (p.kind.(i), rep) with
        | 0, Protocol.Value v ->
            if cur < 0 || not (is_value_of ~len:kv_value_len k cur v) then bad ()
        | 0, Nil -> if cur >= 0 then bad ()
        | 1, Stored replaced ->
            if replaced <> (cur >= 0) then bad ();
            model.(k) <- p.ver.(i)
        | 2, Removed ->
            if cur < 0 then bad ();
            model.(k) <- -1
        | 2, Nil -> if cur >= 0 then bad ()
        | _ -> bad ())
  done;
  !wrong

(* ------------------------------- summary --------------------------- *)

type summary = {
  dropped : int;
  read_lat : int array;  (* ns from due time, ok gets *)
  write_lat : int array;  (* ns from due time, ok puts and removes *)
  gets_ok : int;
  gets_hit : int;
  lag : int array;  (* ns a send left after its due time *)
}

let summarize (p : plan) (r : results) =
  let rl = Buf.create () and wl = Buf.create () and lag = Buf.create () in
  let dropped = ref 0 in
  let gets_ok = ref 0 and gets_hit = ref 0 in
  for i = 0 to p.n - 1 do
    let due = r.start + p.due.(i) in
    if r.sent.(i) > 0 then Buf.add lag (r.sent.(i) - due);
    match Arith.outcome_of_reply r.reply.(i) with
    | Arith.Answered ->
        let l = r.recv.(i) - due in
        if p.kind.(i) = 0 then begin
          Buf.add rl l;
          incr gets_ok;
          match r.reply.(i) with
          | Some (Protocol.Value _) -> incr gets_hit
          | _ -> ()
        end
        else Buf.add wl l
    | Refused -> ()
    | Dropped -> incr dropped
  done;
  {
    dropped = !dropped;
    read_lat = Buf.to_array rl;
    write_lat = Buf.to_array wl;
    gets_ok = !gets_ok;
    gets_hit = !gets_hit;
    lag = Buf.to_array lag;
  }
