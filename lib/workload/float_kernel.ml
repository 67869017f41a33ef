(* Decimal-to-double conversion for the pinned-scenario decoder: the
   Eisel-Lemire algorithm (D. Lemire, "Number Parsing at a Gigabyte per
   Second", Software: Practice and Experience 51(8), 2021; the variant
   here follows the one in Go's strconv and Wuffs), with [float_of_string]
   as the fallback for every token it does not decide.

   A token [-?digits[.digits][(e|E)[+-]digits]] with at most 18
   significant digits is read as w * 10^q (w < 10^18 fits a native int).
   The kernel multiplies w, normalised to 64 bits, by a 128-bit truncated
   mantissa of 10^q and keeps the top 54 bits. The truncation can only
   lower the product, by less than w units of its low 64 bits, so the
   kernel gives up whenever that error could reach a kept bit, on an
   exact halfway case (round-half-even is left to the fallback), and
   outside the normal exponent range. Everything else - more digits, an
   exponent outside [min_q, max_q], a '+' sign, hex, '_', "nan", "inf",
   malformed text - is undecided and goes to [float_of_string].

   Every 64-bit quantity lives in an unboxed [int64] local or in a [Bytes]
   slot read with the raw load primitive, so deciding a token allocates
   nothing; the result is stored straight into a float array. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let min_q = -342
let max_q = 308

(* ---- the powers-of-ten table ----

   Row q holds the 128-bit truncation of 10^q's binary mantissa,
   normalised so bit 127 is set: floor(5^q / 2^(L-128)) for q >= 0 and
   floor(2^(127+L) / 5^-q) for q < 0, where L is the bit length of
   5^|q|. It is computed once, at module initialisation, in exact
   arithmetic over little-endian arrays of 58-bit limbs. Positive rows
   come from 5^q, built by repeated multiplication by 5. Negative rows
   come from X_n = floor(2^K / 5^n), built by repeated exact division by
   5 (floor(floor(a/b)/c) = floor(a/(bc))); shifting X_n right by
   K - 127 - L leaves floor(2^(127+L) / 5^n). Neither step overflows a
   63-bit int. *)

let limb_bits = 58
let limb_mask = (1 lsl limb_bits) - 1

let bit_length a =
  let top = ref (Array.length a - 1) in
  while !top > 0 && a.(!top) = 0 do
    decr top
  done;
  let v = a.(!top) and b = ref 0 in
  while v lsr !b > 0 do
    incr b
  done;
  (!top * limb_bits) + !b

let bit a i =
  if i < 0 || i / limb_bits >= Array.length a then 0
  else (a.(i / limb_bits) lsr (i mod limb_bits)) land 1

let times5 a =
  let carry = ref 0 in
  for k = 0 to Array.length a - 1 do
    let v = (a.(k) * 5) + !carry in
    a.(k) <- v land limb_mask;
    carry := v lsr limb_bits
  done;
  assert (!carry = 0)

let div5 a =
  let rem = ref 0 in
  for k = Array.length a - 1 downto 0 do
    let v = (!rem lsl limb_bits) lor a.(k) in
    a.(k) <- v / 5;
    rem := v mod 5
  done

(* Store bits [from + 127 .. from] of [a] as row [row]: high word at
   byte 16*row + 8, low word at 16*row. *)
let store table row a ~from =
  let word base =
    let w = ref 0L in
    for i = 63 downto 0 do
      w := Int64.logor (Int64.shift_left !w 1) (Int64.of_int (bit a (from + base + i)))
    done;
    !w
  in
  set64 table (16 * row) (word 0);
  set64 table ((16 * row) + 8) (word 64)

let table =
  let t = Bytes.create (16 * (max_q - min_q + 1)) in
  let k = 1024 (* > 127 + L for every 5^n in the window *) in
  let n_limbs = (k / limb_bits) + 2 in
  let pow5 = Array.make n_limbs 0 and recip = Array.make n_limbs 0 in
  pow5.(0) <- 1;
  recip.(k / limb_bits) <- 1 lsl (k mod limb_bits);
  for n = 0 to max max_q (-min_q) do
    let len = bit_length pow5 in
    assert (k >= 127 + len);
    if n <= max_q then store t (n - min_q) pow5 ~from:(len - 128);
    if n >= 1 && -n >= min_q then store t (-n - min_q) recip ~from:(k - 127 - len);
    times5 pow5;
    div5 recip
  done;
  t

(* ---- 64 x 64 -> 128 multiplication ---- *)

let mask32 = 0xFFFF_FFFFL

(* high 64 bits of the unsigned product; the low 64 are [Int64.mul a b] *)
let[@inline] mul_hi a b =
  let a_lo = Int64.logand a mask32 and a_hi = Int64.shift_right_logical a 32 in
  let b_lo = Int64.logand b mask32 and b_hi = Int64.shift_right_logical b 32 in
  let p0 = Int64.mul a_lo b_lo and p1 = Int64.mul a_lo b_hi in
  let p2 = Int64.mul a_hi b_lo and p3 = Int64.mul a_hi b_hi in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical p0 32) (Int64.logand p1 mask32))
      (Int64.logand p2 mask32)
  in
  Int64.add
    (Int64.add p3 (Int64.shift_right_logical p1 32))
    (Int64.add (Int64.shift_right_logical p2 32) (Int64.shift_right_logical mid 32))

(* unsigned a < b *)
let[@inline] ult (a : int64) (b : int64) = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* leading zeros of a positive int below 2^62, as a 64-bit word *)
let clz64 w =
  let n = ref 0 and v = ref w in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; n := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; n := !n + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; n := !n + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; n := !n + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; n := !n + 2 end;
  if !v lsr 1 <> 0 then n := !n + 1;
  63 - !n

(* Eisel-Lemire proper: [dst.(i) <- w * 10^q] when decidable. [w > 0]. *)
let eisel_lemire ~w ~q ~neg dst i =
  if q < min_q || q > max_q then false
  else begin
    let clz = clz64 w in
    let man = Int64.shift_left (Int64.of_int w) clz in
    let exp2 = ref (((217706 * q) asr 16) + 64 + 1023 - clz) in
    let row = 16 * (q - min_q) in
    let x_hi = ref (mul_hi man (get64 table (row + 8))) in
    let x_lo = ref (Int64.mul man (get64 table (row + 8))) in
    let ok = ref true in
    if Int64.logand !x_hi 0x1FFL = 0x1FFL && ult (Int64.add !x_lo man) man then begin
      (* wider approximation: add the product with the row's low word *)
      let y_hi = mul_hi man (get64 table row) and y_lo = Int64.mul man (get64 table row) in
      let merged_lo = Int64.add !x_lo y_hi in
      let merged_hi = if ult merged_lo !x_lo then Int64.succ !x_hi else !x_hi in
      if
        Int64.logand merged_hi 0x1FFL = 0x1FFL
        && Int64.succ merged_lo = 0L
        && ult (Int64.add y_lo man) man
      then ok := false
      else begin
        x_hi := merged_hi;
        x_lo := merged_lo
      end
    end;
    if not !ok then false
    else begin
      let msb = Int64.to_int (Int64.shift_right_logical !x_hi 63) in
      let mantissa = ref (Int64.to_int (Int64.shift_right_logical !x_hi (msb + 9))) in
      exp2 := !exp2 - (1 lxor msb);
      if !x_lo = 0L && Int64.logand !x_hi 0x1FFL = 0L && !mantissa land 3 = 1
      then false (* exactly halfway: leave ties to the fallback *)
      else begin
        mantissa := (!mantissa + (!mantissa land 1)) lsr 1;
        if !mantissa lsr 53 > 0 then begin
          mantissa := !mantissa lsr 1;
          incr exp2
        end;
        if !exp2 <= 0 || !exp2 >= 0x7FF then false (* subnormal or overflow *)
        else begin
          let bits =
            Int64.logor
              (Int64.shift_left (Int64.of_int !exp2) 52)
              (Int64.of_int (!mantissa land 0xF_FFFF_FFFF_FFFF))
          in
          let bits = if neg then Int64.logor bits Int64.min_int else bits in
          dst.(i) <- Int64.float_of_bits bits;
          true
        end
      end
    end
  end

let is_digit c = c >= '0' && c <= '9'

(* digits of [s.[from .. upto-1]] after the leading zeros, '.' skipped *)
let significant_digits s ~from ~upto =
  let n = ref 0 and leading = ref true in
  for k = from to upto - 1 do
    let c = String.unsafe_get s k in
    if is_digit c && not (!leading && c = '0') then begin
      leading := false;
      incr n
    end
  done;
  !n

let scan s ~pos ~limit dst i =
  let k = ref pos in
  let neg = pos < limit && String.unsafe_get s pos = '-' in
  if neg then incr k;
  let w = ref 0 and mantissa_start = !k in
  while !k < limit && is_digit (String.unsafe_get s !k) do
    w := (!w * 10) + (Char.code (String.unsafe_get s !k) - 48);
    incr k
  done;
  let n_digits = ref (!k - mantissa_start) and frac_digits = ref 0 in
  if !k < limit && String.unsafe_get s !k = '.' then begin
    incr k;
    let frac_start = !k in
    while !k < limit && is_digit (String.unsafe_get s !k) do
      w := (!w * 10) + (Char.code (String.unsafe_get s !k) - 48);
      incr k
    done;
    frac_digits := !k - frac_start;
    n_digits := !n_digits + !frac_digits
  end;
  if !n_digits = 0 then -1
  else if !n_digits > 18 && significant_digits s ~from:mantissa_start ~upto:!k > 18 then -1
  else begin
    let e = ref 0 and well_formed = ref true in
    if !k < limit && (String.unsafe_get s !k = 'e' || String.unsafe_get s !k = 'E') then begin
      incr k;
      let e_neg = !k < limit && String.unsafe_get s !k = '-' in
      if !k < limit && (e_neg || String.unsafe_get s !k = '+') then incr k;
      if not (!k < limit && is_digit (String.unsafe_get s !k)) then well_formed := false;
      while !k < limit && is_digit (String.unsafe_get s !k) do
        if !e < 100_000 then e := (!e * 10) + Char.code (String.unsafe_get s !k) - 48;
        incr k
      done;
      if e_neg then e := - !e
    end;
    if not !well_formed then -1
    else if !w = 0 then begin
      dst.(i) <- (if neg then -0. else 0.);
      !k
    end
    else if eisel_lemire ~w:!w ~q:(!e - !frac_digits) ~neg dst i then !k
    else -1
  end
