(** Binary wire format for {!Msg.t}.

    The simulator passes messages as OCaml values and models sizes with
    {!Msg.size}; this codec is the real serialization a deployment would
    put on the wire — used by the persistence/audit tooling and validated
    by round-trip property tests. It is built from the shared
    {!Rcc_common.Wire} primitives, and every batch inside a message is
    a {!Batch.write} record. The format is self-describing enough to
    reject truncated or corrupted input with an error rather than an
    exception. *)

val encode : Msg.t -> string

val decode : string -> (Msg.t, string) result
(** Inverse of {!encode}: [decode (encode m) = Ok m]. *)

val encoded_size : Msg.t -> int
(** [String.length (encode m)], summed from the message's fields without
    encoding it; {!encode} allocates exactly this many bytes. *)
