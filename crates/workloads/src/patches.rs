//! The paper's Section-3 semantic patches, in this workspace's SMPL
//! dialect — shared by the integration tests, the example binaries, and
//! the benchmark harness so that every consumer exercises the exact same
//! patch text.
//!
//! Indexed UC1–UC11 in the order of the paper's Section-3 use cases
//! (UC7 and UC8 also combine into `UC78_CUDA_HIP_FULL`).

/// UC1 — LIKWID marker-API instrumentation.
pub const UC1_LIKWID: &str = r#"
@@ @@
#include <omp.h>
+ #include <likwid-marker.h>

@@ @@
#pragma omp ...
{
+ LIKWID_MARKER_START(__func__);
...
+ LIKWID_MARKER_STOP(__func__);
}
"#;

/// UC2 — `#pragma omp declare variant` function cloning.
pub const UC2_VARIANT: &str = r#"
@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier f512 = "avx512_" ## f;
fresh identifier f10 = "avx10_" ## f;
@@
+ T f512 (PL) { SL }
+ T f10 (PL) { SL }
+ #pragma omp declare variant(f512) match(device={isa("core-avx512")})
+ #pragma omp declare variant(f10) match(device={isa("core-avx10")})
T f (PL) { SL }
"#;

/// UC3 — editing an existing `target("avx512")` multiversion body.
pub const UC3_MULTIVERSION: &str = r#"
@@
identifier f;
type T;
@@
__attribute__((target(...,"avx512",...)))
T f(...)
{
+ avx512_specific_setup();
...
}
"#;

/// UC4 — bloat/clone removal of avx512/avx2 specializations plus the
/// now-redundant default attribute.
pub const UC4_BLOAT: &str = r#"
@c@
type T;
function f;
parameter list PL;
@@
- __attribute__((target( \( "avx512" \| "avx2" \) )))
- T f(PL) { ... }

@d depends on c@
type c.T;
function c.f;
parameter list c.PL;
@@
- __attribute__((target("default")))
T f(PL) { ... }
"#;

/// UC5 — one-rule unroll removal (`p0`).
pub const UC5_UNROLL_P0: &str = r#"
@p0@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
< l ;
- i+=k
+ ++i
)
{
\( A \& i+0 \) \(
- B \& i+1
\) \(
- C \& i+2
\) \(
- D \& i+3
\)
}
"#;

/// UC5 — safe two-rule unroll removal (`p1` + `r1`).
pub const UC5_UNROLL_P1_R1: &str = r#"
@p1@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
for (T i=0; i+k-1 < l; i+=k)
{
\( A \& i+0 \) \( B \&
- i+1
+ i+0
\) \( C \&
- i+2
+ i+0
\) \( D \&
- i+3
+ i+0
\)
}

@r1@
type T;
identifier i,l;
constant k={4};
statement p1.A;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
< l ;
- i+=k
+ ++i
)
{
A
- A A A
}
"#;

/// UC6 — C++23 multi-index subscript rewrite.
pub const UC6_MDSPAN: &str = r#"
#spatch --c++=23
@tomultiindex@
symbol a;
expression x,y,z;
@@
- a[x][y][z]
+ a[x, y, z]
"#;

/// UC7 — CUDA→HIP function and type dictionaries via script rules.
pub const UC7_CUDA_HIP: &str = r#"
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }
C2HT = { "__half": "rocblas_half" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)

@cte@
type c_t;
identifier i;
@@
c_t i;

@script:python ct2hf@
c_t << cte.c_t;
h_t;
@@
coccinelle.h_t = cocci.make_type(C2HT[c_t]);

@hte@
type ct2hf.h_t;
type cte.c_t;
identifier cte.i;
@@
- c_t i;
+ h_t i;
"#;

/// UC8 — CUDA triple-chevron launch → `hipLaunchKernelGGL`.
pub const UC8_CHEVRON: &str = r#"
#spatch --c++
@@
identifier k;
expression b,t,x,y;
expression list el;
@@
- k<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(k,b,t,x,y,el)
"#;

/// UC7+UC8 combined (the full CUDA→HIP migration used by the example
/// binary and the precision experiment).
pub const UC78_CUDA_HIP_FULL: &str = r#"
#spatch --c++
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }
C2HT = { "__half": "rocblas_half" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)

@cte@
type c_t;
identifier i;
@@
c_t i;

@script:python ct2hf@
c_t << cte.c_t;
h_t;
@@
coccinelle.h_t = cocci.make_type(C2HT[c_t]);

@hte@
type ct2hf.h_t;
type cte.c_t;
identifier cte.i;
@@
- c_t i;
+ h_t i;

@chevron@
identifier kk;
expression b,t,x,y;
expression list el;
@@
- kk<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(kk,b,t,x,y,el)
"#;

/// UC9 — OpenACC→OpenMP pragma translation via a script rule.
pub const UC9_ACC_OMP: &str = r#"
@moa@
pragmainfo pi;
@@
#pragma acc pi

@script:python o2o@
pi << moa.pi;
po;
@@
coccinelle.po = cocci.make_pragmainfo("target teams " + pi);

@depends on o2o@
pragmainfo moa.pi;
pragmainfo o2o.po;
@@
- #pragma acc pi
+ #pragma omp po
"#;

/// UC10 — raw search loop → `std::find`.
pub const UC10_STL_FIND: &str = r#"
#spatch --c++
@rl@
type T;
constant kc;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
- if ( \( elem == kc \| kc == elem \) )
- {
- ...
- result = true;
- break;
- }
+ const bool result = (find(begin(arrid),end(arrid),kc) != end(arrid));

@ah depends on rl@
@@
#include <iostream>
+ #include <algorithm>
+ #include <functional>
"#;

/// UC11 — GCC pragma injection around compiler-bug-affected functions.
pub const UC11_PRAGMA_INJECT: &str = r#"
@pragma_inject@
identifier i =~ "rsb__BCSR_spmv_sasa_double_complex_[CH]__t[NTC]_r1_c1_uu_s[HS]_dE_uG";
type T;
@@
+ #pragma GCC push_options
+ #pragma GCC optimize "-O3", "-fno-tree-loop-vectorize"
T i(...)
{
...
}
+ #pragma GCC pop_options
"#;

/// All use-case patches with their ids, for table-driven harnesses.
pub const ALL: &[(&str, &str)] = &[
    ("UC1", UC1_LIKWID),
    ("UC2", UC2_VARIANT),
    ("UC3", UC3_MULTIVERSION),
    ("UC4", UC4_BLOAT),
    ("UC5-p0", UC5_UNROLL_P0),
    ("UC5-p1r1", UC5_UNROLL_P1_R1),
    ("UC6", UC6_MDSPAN),
    ("UC7", UC7_CUDA_HIP),
    ("UC8", UC8_CHEVRON),
    ("UC9", UC9_ACC_OMP),
    ("UC10", UC10_STL_FIND),
    ("UC11", UC11_PRAGMA_INJECT),
];

#[cfg(test)]
mod tests {
    #[test]
    fn all_table_is_complete() {
        assert_eq!(super::ALL.len(), 12);
        let ids: Vec<&str> = super::ALL.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&"UC5-p0"));
        assert!(ids.contains(&"UC11"));
    }
}
