//! Test oracle: a line-by-line scalar transcription of fdlibm's
//! `s_tanhf.c` and `s_expm1f.c` (as glibc's `sysdeps/ieee754/flt-32`
//! carries them), branches and all. It plays the role `reference_gemm`
//! plays for the GEMM: the plain form the branch-free production
//! [`super::tanh`] must equal bit for bit. Floating-point exception
//! flags and `errno`, which Rust cannot observe, are left out; every
//! value-producing statement is kept in fdlibm's order.

const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const HUGE: f32 = 1.0e+30;
const TINY: f32 = 1.0e-30;
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

fn get_word(x: f32) -> i32 {
    x.to_bits() as i32
}

fn set_word(i: i32) -> f32 {
    f32::from_bits(i as u32)
}

/// `__expm1f`.
pub(super) fn expm1f(mut x: f32) -> f32 {
    let mut y: f32;
    let hi: f32;
    let lo: f32;
    let mut c: f32 = 0.0;
    let mut t: f32;
    let mut e: f32;
    let k: i32;

    let mut hx = get_word(x) as u32;
    let xsb = hx & 0x8000_0000; // sign bit of x
    hx &= 0x7fff_ffff; // high word of |x|

    // filter out huge and non-finite argument
    if hx >= 0x4195_b844 {
        // if |x|>=27*ln2
        if hx >= 0x42b1_7218 {
            // if |x|>=88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 }; // exp(+-inf)={inf,-1}
            }
            if xsb == 0 && hx > 0x42b1_7217 {
                return HUGE * HUGE; // overflow
            }
        }
        if xsb != 0 {
            // x < -27*ln2, return -1.0 with inexact
            return TINY - ONE;
        }
    }

    // argument reduction
    if hx > 0x3eb1_7218 {
        // if  |x| > 0.5 ln2
        if hx < 0x3F85_1592 {
            // and |x| < 1.5 ln2
            if xsb == 0 {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            } else {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            t = k as f32;
            hi = x - t * LN2_HI; // t*ln2_hi is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // when |x|<2**-25, return x
        t = HUGE + x; // return x with inexact flags when x!=0
        return x - (t - HUGE);
    } else {
        k = 0;
    }

    // x is now in primary range
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    t = 3.0 - r1 * hfx;
    e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        if x < -0.25 {
            return -2.0 * (e - (x + 0.5));
        } else {
            return ONE + 2.0 * (x - e);
        }
    }
    if k <= -2 || k > 56 {
        // suffice to return exp(x)-1
        y = ONE - (e - x);
        if k == 128 {
            y = y * 2.0 * f32::from_bits(0x7f00_0000); // 0x1p127F
        } else {
            let i = get_word(y);
            y = set_word(i.wrapping_add(k << 23)); // add k to y's exponent
        }
        return y - ONE;
    }
    if k < 23 {
        t = set_word(0x3f80_0000 - (0x0100_0000 >> k)); // t=1-2^-k
        y = t - (e - x);
        let i = get_word(y);
        y = set_word(i.wrapping_add(k << 23)); // add k to y's exponent
    } else {
        t = set_word((0x7f - k) << 23); // 2^-k
        y = x - (e + t);
        y += ONE;
        let i = get_word(y);
        y = set_word(i.wrapping_add(k << 23)); // add k to y's exponent
    }
    y
}

/// `__tanhf`.
pub(super) fn tanhf(x: f32) -> f32 {
    let t: f32;
    let z: f32;

    let jx = get_word(x);
    let ix = jx & 0x7fff_ffff;

    // x is INF or NaN
    if ix >= 0x7f80_0000 {
        if jx >= 0 {
            return ONE / x + ONE; // tanh(+-inf)=+-1
        } else {
            return ONE / x - ONE; // tanh(NaN) = NaN
        }
    }

    // |x| < 22
    if ix < 0x41b0_0000 {
        if ix == 0 {
            return x; // x == +-0
        }
        if ix < 0x2400_0000 {
            // |x|<2**-55
            return x * (ONE + x); // tanh(small) = small
        }
        if ix >= 0x3f80_0000 {
            // |x|>=1
            t = expm1f(TWO * x.abs());
            z = ONE - TWO / (t + TWO);
        } else {
            t = expm1f(-TWO * x.abs());
            z = -t / (t + TWO);
        }
    } else {
        // |x| > 22, return +-1
        z = ONE - TINY; // raised inexact flag
    }
    if jx >= 0 {
        z
    } else {
        -z
    }
}
