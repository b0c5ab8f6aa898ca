#include "sparse/ldlt.hpp"

#include <algorithm>

#include "sparse/amd.hpp"
#include "sparse/reorder.hpp"
#include "util/check.hpp"

namespace rpcg {

namespace {

// Supernodes narrower than this stay on the scalar column sweep: the blocked
// kernel's per-block bookkeeping (row-list indirection, panel strides, the
// backward accumulator) only pays off once a panel is wide enough to stream.
// Perfect bands detect only singleton supernodes and thus keep the scalar
// solve; fill-heavy AMD-ordered factors pack their wide trailing supernodes
// and solve them dense.
constexpr Index kMinPanelWidth = 8;

// Register tile of the dense update kernel: a kMr x kNr block of the target
// is held in locals (vector registers after unrolling) while the two packed
// operands stream through it. Square, so tiles meet the diagonal of a
// lower-trapezoidal update only on the diagonal.
constexpr Index kMr = 4;
constexpr Index kNr = 4;
static_assert(kMr == kNr);
// Cache blocking of the update: operands are packed kKc steps deep and
// kMc (rows) or kNc (columns) wide, which also bounds the packing scratch.
constexpr Index kKc = 256;
constexpr Index kMc = 64;
constexpr Index kNc = 64;
static_assert(kMc % kMr == 0 && kNc % kNr == 0);
// Column ranges of a supernode up to this wide are factored with scalar
// axpys; wider ones split in half and update through the tiled kernel.
constexpr Index kNb = 16;
// A descendant update from a supernode narrower than a register tile, or
// smaller than this many multiply-adds, skips packing and runs scalar loops
// straight into the target supernode.
constexpr Index kSmallUpdate = 256;

/// Elimination tree of the symmetric matrix a (Liu's algorithm with path
/// compression over the strictly lower entries of each row).
std::vector<Index> elimination_tree(const CsrMatrix& a) {
  const Index n = a.rows();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
  for (Index k = 0; k < n; ++k) {
    for (Index i : a.row_cols(k)) {
      while (i != -1 && i < k) {
        const Index next = ancestor[static_cast<std::size_t>(i)];
        ancestor[static_cast<std::size_t>(i)] = k;
        if (next == -1) parent[static_cast<std::size_t>(i)] = k;
        i = next;
      }
    }
  }
  return parent;
}

/// Postorder of the forest given by parent (children in ascending order).
std::vector<Index> postorder(const std::vector<Index>& parent) {
  const auto n = static_cast<Index>(parent.size());
  std::vector<Index> head(static_cast<std::size_t>(n), -1);
  std::vector<Index> next(static_cast<std::size_t>(n), -1);
  std::vector<Index> stack(static_cast<std::size_t>(n));
  std::vector<Index> post;
  post.reserve(static_cast<std::size_t>(n));
  for (Index j = n - 1; j >= 0; --j) {
    const Index p = parent[static_cast<std::size_t>(j)];
    if (p == -1) continue;
    next[static_cast<std::size_t>(j)] = head[static_cast<std::size_t>(p)];
    head[static_cast<std::size_t>(p)] = j;
  }
  for (Index root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] != -1) continue;
    Index top = 0;
    stack[0] = root;
    while (top >= 0) {
      const Index p = stack[static_cast<std::size_t>(top)];
      const Index child = head[static_cast<std::size_t>(p)];
      if (child == -1) {
        --top;
        post.push_back(p);
      } else {
        head[static_cast<std::size_t>(p)] = next[static_cast<std::size_t>(child)];
        stack[static_cast<std::size_t>(++top)] = child;
      }
    }
  }
  return post;
}

/// Number of sub-diagonal entries of every column of L, in O(|A| log n)
/// without forming the pattern: the skeleton-matrix column counts of
/// Gilbert, Ng and Peyton, as in Davis, "Direct Methods for Sparse Linear
/// Systems", sec. 4.5. Row i of L is the row subtree of the etree whose
/// leaves are columns j < i with A(i,j) != 0; each leaf adds one to the
/// counts up its path and each least common ancestor of consecutive leaves
/// takes the overlap back.
std::vector<Index> column_counts(const CsrMatrix& a,
                                 const std::vector<Index>& parent) {
  const Index n = a.rows();
  const std::vector<Index> post = postorder(parent);
  std::vector<Index> first(static_cast<std::size_t>(n), -1);
  std::vector<Index> max_first(static_cast<std::size_t>(n), -1);
  std::vector<Index> prev_leaf(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n));
  std::vector<Index> delta(static_cast<std::size_t>(n), 0);
  for (Index k = 0; k < n; ++k) {
    Index j = post[static_cast<std::size_t>(k)];
    delta[static_cast<std::size_t>(j)] = first[static_cast<std::size_t>(j)] == -1 ? 1 : 0;
    for (; j != -1 && first[static_cast<std::size_t>(j)] == -1;
         j = parent[static_cast<std::size_t>(j)])
      first[static_cast<std::size_t>(j)] = k;
  }
  for (Index i = 0; i < n; ++i) ancestor[static_cast<std::size_t>(i)] = i;
  for (Index k = 0; k < n; ++k) {
    const Index j = post[static_cast<std::size_t>(k)];
    const Index pj = parent[static_cast<std::size_t>(j)];
    if (pj != -1) --delta[static_cast<std::size_t>(pj)];
    for (const Index i : a.row_cols(j)) {
      // Is j a new leaf of row i's subtree? Only if no earlier leaf's
      // subtree already covers it.
      if (i <= j ||
          first[static_cast<std::size_t>(j)] <= max_first[static_cast<std::size_t>(i)])
        continue;
      max_first[static_cast<std::size_t>(i)] = first[static_cast<std::size_t>(j)];
      const Index jprev = prev_leaf[static_cast<std::size_t>(i)];
      prev_leaf[static_cast<std::size_t>(i)] = j;
      ++delta[static_cast<std::size_t>(j)];
      if (jprev == -1) continue;
      // Subsequent leaf: the paths of jprev and j overlap from their
      // least common ancestor q up (found with path compression).
      Index q = jprev;
      while (q != ancestor[static_cast<std::size_t>(q)]) q = ancestor[static_cast<std::size_t>(q)];
      for (Index v = jprev; v != q;) {
        const Index up = ancestor[static_cast<std::size_t>(v)];
        ancestor[static_cast<std::size_t>(v)] = q;
        v = up;
      }
      --delta[static_cast<std::size_t>(q)];
    }
    if (pj != -1) ancestor[static_cast<std::size_t>(j)] = pj;
  }
  // Sum the deltas up the tree (children precede parents), then drop the
  // diagonal.
  for (Index j = 0; j < n; ++j) {
    const Index pj = parent[static_cast<std::size_t>(j)];
    if (pj != -1) delta[static_cast<std::size_t>(pj)] += delta[static_cast<std::size_t>(j)];
  }
  for (Index& c : delta) --c;
  return delta;
}

/// Scratch of the dense kernels, reused across supernodes: the packed
/// operands are bounded by the cache blocking, the offset lists by the
/// largest supernode.
struct DenseWorkspace {
  std::vector<double> pack_a;  // kMr-row micro-panels of Y, k-major
  std::vector<double> pack_b;  // kNr-row micro-panels of L = Y·D⁻¹, k-major
  std::vector<Index> row;      // target row offsets of an update
  std::vector<Index> col;      // target column offsets of an update
  std::vector<Index> desc;     // descendants updating the current supernode
};

/// Packs rows [r0, r0 + rows) of the k operand columns col[p] (+ r0) into
/// kMr-row micro-panels, k-major, zero-padding the ragged last one. With d,
/// column p is divided by d[p] (Y·D⁻¹ = L, the up-looking pass's division).
void pack(const double* const* col, Index r0, Index rows, Index k,
          const double* d, std::vector<double>& out) {
  const Index tiles = (rows + kMr - 1) / kMr;
  out.resize(static_cast<std::size_t>(tiles * kMr * k));
  for (Index t = 0; t < tiles; ++t) {
    double* dst = out.data() + t * kMr * k;
    const Index i0 = r0 + t * kMr;
    const Index m = std::min(kMr, rows - t * kMr);
    for (Index p = 0; p < k; ++p, dst += kMr) {
      const double* src = col[p] + i0;
      if (d != nullptr) {
        for (Index i = 0; i < m; ++i) dst[i] = src[i] / d[p];
      } else {
        for (Index i = 0; i < m; ++i) dst[i] = src[i];
      }
      for (Index i = m; i < kMr; ++i) dst[i] = 0.0;
    }
  }
}

/// One register tile: target(i, j) -= Σ_p A(i, p) · B(j, p) for the mi x nj
/// valid entries, and on a diagonal tile only for i >= j (the entries above
/// belong to no column of the target). Entry (i, j) lives at
/// c[row[i] + col[j]], or at c[row0 + i + col[j]] when row is null. The
/// target is loaded into the accumulators and takes one product at a time
/// in ascending p: the up-looking pass's products, in its order wherever
/// the elimination tree is a path.
inline void tile_update(Index kc, const double* __restrict ap,
                        const double* __restrict bp, double* c,
                        const Index* row, Index row0, const Index* col,
                        Index mi, Index nj, bool diagonal) {
  Index r[kMr];
  for (Index i = 0; i < kMr; ++i)
    r[i] = i >= mi ? 0 : row != nullptr ? row[i] : row0 + i;
  const bool full = mi == kMr && nj == kNr && !diagonal;
  const auto live = [&](Index i, Index j) {
    return i < mi && j < nj && (!diagonal || i >= j);
  };
  double acc[kNr][kMr];
  if (full) {
    for (Index j = 0; j < kNr; ++j)
      for (Index i = 0; i < kMr; ++i) acc[j][i] = c[r[i] + col[j]];
  } else {
    for (Index j = 0; j < kNr; ++j)
      for (Index i = 0; i < kMr; ++i)
        acc[j][i] = live(i, j) ? c[r[i] + col[j]] : 0.0;
  }
  for (Index p = 0; p < kc; ++p, ap += kMr, bp += kNr)
    for (Index j = 0; j < kNr; ++j)
      for (Index i = 0; i < kMr; ++i) acc[j][i] -= ap[i] * bp[j];
  if (full) {
    for (Index j = 0; j < kNr; ++j)
      for (Index i = 0; i < kMr; ++i) c[r[i] + col[j]] = acc[j][i];
  } else {
    for (Index j = 0; j < nj; ++j)
      for (Index i = 0; i < mi; ++i)
        if (live(i, j)) c[r[i] + col[j]] = acc[j][i];
  }
}

/// target(i, j) -= (Y · (B · D⁻¹)ᵀ)(i, j) for i >= j over an m x n update
/// (m >= n): Y holds rows [off, off + m) of the k columns ycol[p] (unscaled
/// L·D, as stored during the factorization) and B is its first n rows, so
/// B · D⁻¹ is L. Entry (i, j) lives at c[row[i] + col[j]], or at
/// c[row0 + i + col[j]] when row is null (a supernode updating its own
/// trailing columns).
void update_lower(Index m, Index n, Index k, const double* const* ycol,
                  Index off, const double* d, double* c, const Index* row,
                  Index row0, const Index* col, DenseWorkspace& ws) {
  for (Index p0 = 0; p0 < k; p0 += kKc) {
    const Index kc = std::min(kKc, k - p0);
    for (Index j0 = 0; j0 < n; j0 += kNc) {
      const Index nb = std::min(kNc, n - j0);
      pack(ycol + p0, off + j0, nb, kc, d + p0, ws.pack_b);
      for (Index i0 = j0; i0 < m; i0 += kMc) {
        const Index mb = std::min(kMc, m - i0);
        pack(ycol + p0, off + i0, mb, kc, nullptr, ws.pack_a);
        for (Index tj = 0; tj < nb; tj += kNr) {
          // Tiles wholly above the diagonal are skipped.
          for (Index ti = std::max<Index>(0, j0 + tj - i0); ti < mb; ti += kMr) {
            tile_update(kc, ws.pack_a.data() + ti * kc,
                        ws.pack_b.data() + tj * kc, c,
                        row != nullptr ? row + i0 + ti : nullptr,
                        row0 + i0 + ti, col + j0 + tj,
                        std::min(kMr, mb - ti), std::min(kNr, nb - tj),
                        i0 + ti == j0 + tj);
          }
        }
      }
    }
  }
}

/// Dense LDLᵀ of columns [k0, k1) of one supernode whose earlier columns'
/// updates are already applied. Column j is col[j], indexed by the row's
/// position in the supernode (valid from its diagonal, row j, down to row
/// nrow - 1). On return the diagonal holds D, d[j] = D(j, j), and the
/// entries below it hold L·D (unscaled, as later updates consume them).
/// Recursive halving (as in recursive Cholesky): the left half is factored,
/// its update reaches the right half through the tiled kernel, then the
/// right half is factored. Narrow ranges run scalar axpys with the
/// up-looking pass's operations in its order. False on a pivot that is not
/// positive (or NaN).
bool factor_columns(double* const* col, Index nrow, Index k0, Index k1,
                    double* d, double* base, DenseWorkspace& ws) {
  if (k1 - k0 > kNb) {
    const Index mid = k0 + ((k1 - k0) / 2 + kNr - 1) / kNr * kNr;
    if (!factor_columns(col, nrow, k0, mid, d, base, ws)) return false;
    ws.col.resize(static_cast<std::size_t>(k1 - mid));
    for (Index j = mid; j < k1; ++j)
      ws.col[static_cast<std::size_t>(j - mid)] = col[j] - base;
    update_lower(nrow - mid, k1 - mid, mid - k0, col + k0, mid, d + k0, base,
                 nullptr, mid, ws.col.data(), ws);
    return factor_columns(col, nrow, mid, k1, d, base, ws);
  }
  for (Index j = k0; j < k1; ++j) {
    const double* cj = col[j];
    const double dj = cj[j];
    if (!(dj > 0.0)) return false;
    d[j] = dj;
    for (Index jj = j + 1; jj < k1; ++jj) {
      const double l = cj[jj] / dj;
      double* cjj = col[jj];
      for (Index i = jj; i < nrow; ++i) cjj[i] -= l * cj[i];
    }
  }
  return true;
}

}  // namespace

const char* to_string(LdltOrdering o) {
  switch (o) {
    case LdltOrdering::kNatural: return "natural";
    case LdltOrdering::kRcm: return "rcm";
    case LdltOrdering::kAmd: return "amd";
  }
  return "?";
}

Index SparseLdlt::symbolic_nnz(const CsrMatrix& a) {
  RPCG_CHECK(a.rows() == a.cols(), "LDLt needs a square matrix");
  const std::vector<Index> counts = column_counts(a, elimination_tree(a));
  Index nnz = 0;
  for (const Index c : counts) nnz += c;
  return nnz;
}

std::optional<SparseLdlt> SparseLdlt::factor(const CsrMatrix& a,
                                             bool supernodal) {
  RPCG_CHECK(a.rows() == a.cols(), "LDLt needs a square matrix");
  const Index n = a.rows();
  SparseLdlt f;
  f.n_ = n;

  // --- Symbolic analysis: elimination tree, column counts, the pattern of
  // L and its supernode partition. ---
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> lnz = column_counts(a, parent);
  f.lp_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    const Index c = lnz[static_cast<std::size_t>(j)];
    f.lp_[static_cast<std::size_t>(j) + 1] = f.lp_[static_cast<std::size_t>(j)] + c;
    // The m-th entry of column j (0-based) costs 2m + 4 flops, so the
    // column costs c(c-1) + 4c: integer-valued, hence exact in doubles and
    // independent of the order the factorization visits the entries in.
    const auto cd = static_cast<double>(c);
    f.factor_flops_ += cd * (cd - 1.0) + 4.0 * cd;
  }
  f.li_.assign(static_cast<std::size_t>(f.lp_.back()), 0);
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // Exact supernodes: column j joins column j-1's supernode iff
  // pattern(j-1) = {j} ∪ pattern(j). Since pattern(j-1) \ {parent(j-1)} ⊆
  // pattern(parent(j-1)), that holds exactly when parent(j-1) = j and
  // column j-1 has one entry more than column j.
  std::vector<Index> first;  // supernode -> first column; then n
  std::vector<Index> super_of(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const bool extends =
        j > 0 && parent[static_cast<std::size_t>(j) - 1] == j &&
        lnz[static_cast<std::size_t>(j) - 1] == lnz[static_cast<std::size_t>(j)] + 1;
    if (!extends) first.push_back(j);
    super_of[static_cast<std::size_t>(j)] = static_cast<Index>(first.size()) - 1;
  }
  const auto nsuper = static_cast<Index>(first.size());
  first.push_back(n);
  f.num_supernodes_ = nsuper;
  f.max_sn_width_ = 1;

  // Row structure: the row-subtree walk of the supernodal etree appends row
  // k to every supernode whose columns row k of L touches below their
  // diagonal block, in ascending k. It fills the pattern of each
  // supernode's last column; the other columns' patterns are that one
  // prefixed with the supernode's later columns.
  {
    std::vector<Index> sparent(static_cast<std::size_t>(nsuper), -1);
    std::vector<Index> fill(static_cast<std::size_t>(nsuper));
    for (Index s = 0; s < nsuper; ++s) {
      const Index last = first[static_cast<std::size_t>(s) + 1] - 1;
      const Index p = parent[static_cast<std::size_t>(last)];
      if (p != -1) sparent[static_cast<std::size_t>(s)] = super_of[static_cast<std::size_t>(p)];
      fill[static_cast<std::size_t>(s)] = f.lp_[static_cast<std::size_t>(last)];
    }
    std::vector<Index> mark(static_cast<std::size_t>(nsuper), -1);
    for (Index k = 0; k < n; ++k) {
      mark[static_cast<std::size_t>(super_of[static_cast<std::size_t>(k)])] = k;
      for (const Index i : a.row_cols(k)) {
        if (i >= k) continue;
        for (Index s = super_of[static_cast<std::size_t>(i)];
             mark[static_cast<std::size_t>(s)] != k;
             s = sparent[static_cast<std::size_t>(s)]) {
          f.li_[static_cast<std::size_t>(fill[static_cast<std::size_t>(s)]++)] = k;
          mark[static_cast<std::size_t>(s)] = k;
        }
      }
    }
    for (Index s = 0; s < nsuper; ++s) {
      const Index c0 = first[static_cast<std::size_t>(s)];
      const Index last = first[static_cast<std::size_t>(s) + 1] - 1;
      const auto tail = f.li_.begin() + f.lp_[static_cast<std::size_t>(last)];
      const auto tail_end = f.li_.begin() + f.lp_[static_cast<std::size_t>(last) + 1];
      for (Index j = c0; j < last; ++j) {
        auto out = f.li_.begin() + f.lp_[static_cast<std::size_t>(j)];
        for (Index r = j + 1; r <= last; ++r) *out++ = r;
        std::copy(tail, tail_end, out);
      }
    }
  }

  const auto width = [&](Index s) {
    return first[static_cast<std::size_t>(s) + 1] - first[static_cast<std::size_t>(s)];
  };
  const auto below = [&](Index s) {  // sub-block rows: pointer into li_
    return f.li_.data() + f.lp_[static_cast<std::size_t>(first[static_cast<std::size_t>(s) + 1]) - 1];
  };
  const auto nbelow = [&](Index s) {
    return lnz[static_cast<std::size_t>(first[static_cast<std::size_t>(s) + 1]) - 1];
  };
  for (Index s = 0; s < nsuper; ++s) f.max_sn_width_ = std::max(f.max_sn_width_, width(s));

  // --- Numeric pass: left-looking over supernodes, in place in lx_. While
  // it runs, column j holds its diagonal followed by its sub-diagonal
  // entries at lx_[lp_[j] + j ...] (n slots more than L), so the columns of
  // supernode s, with rows R_s = its own columns followed by the pattern of
  // its last column, form a lower trapezoid: entry (R_s[r], j) sits at
  // col[j][r] for r >= j - first[s]. Entries hold L·D (the factor the
  // updates consume) until a last pass divides by D. Every factored
  // supernode d waits in the list of the supernode owning its next unused
  // row; when that supernode s comes up, d's rows inside s's columns give
  // the update L_d · D_d · L_dᵀ restricted to (rows of d ≥ first[s]) x
  // (rows of d in s), scattered into s through the relative row map. ---
  f.lx_.assign(static_cast<std::size_t>(f.lp_.back() + n), 0.0);
  double* const lx = f.lx_.data();
  std::vector<double*> col(static_cast<std::size_t>(n));
  for (Index s = 0; s < nsuper; ++s)
    for (Index j = first[static_cast<std::size_t>(s)]; j < first[static_cast<std::size_t>(s) + 1]; ++j)
      col[static_cast<std::size_t>(j)] =
          lx + f.lp_[static_cast<std::size_t>(j)] + first[static_cast<std::size_t>(s)];
  DenseWorkspace ws;
  std::vector<Index> relmap(static_cast<std::size_t>(n), 0);
  std::vector<Index> head(static_cast<std::size_t>(nsuper), -1);
  std::vector<Index> link(static_cast<std::size_t>(nsuper), -1);
  std::vector<Index> next_row(static_cast<std::size_t>(nsuper), 0);
  const auto enqueue = [&](Index d, Index pos) {
    next_row[static_cast<std::size_t>(d)] = pos;
    const Index t = super_of[static_cast<std::size_t>(below(d)[pos])];
    link[static_cast<std::size_t>(d)] = head[static_cast<std::size_t>(t)];
    head[static_cast<std::size_t>(t)] = d;
  };

  for (Index s = 0; s < nsuper; ++s) {
    const Index c0 = first[static_cast<std::size_t>(s)];
    const Index c1 = first[static_cast<std::size_t>(s) + 1];
    const Index w = c1 - c0;
    const Index nb = nbelow(s);
    const Index* rows_below = below(s);
    double* const* scol = col.data() + c0;
    for (Index jj = 0; jj < w; ++jj) relmap[static_cast<std::size_t>(c0 + jj)] = jj;
    for (Index r = 0; r < nb; ++r) relmap[static_cast<std::size_t>(rows_below[r])] = w + r;

    // Scatter A's lower part of the supernode's columns (symmetric storage:
    // row j holds column j).
    for (Index j = c0; j < c1; ++j) {
      const auto cols = a.row_cols(j);
      const auto vals = a.row_vals(j);
      double* xj = scol[j - c0];
      for (std::size_t p = 0; p < cols.size(); ++p)
        if (cols[p] >= j) xj[relmap[static_cast<std::size_t>(cols[p])]] += vals[p];
    }

    // Gather the descendants' updates, in ascending order: every target
    // entry then takes its contributions in column order (the up-looking
    // pass's order wherever the elimination tree is a path).
    ws.desc.clear();
    for (Index d = head[static_cast<std::size_t>(s)]; d != -1;
         d = link[static_cast<std::size_t>(d)])
      ws.desc.push_back(d);
    head[static_cast<std::size_t>(s)] = -1;
    std::sort(ws.desc.begin(), ws.desc.end());
    for (const Index d : ws.desc) {
      const Index wd = width(d);
      const Index d0 = first[static_cast<std::size_t>(d)];
      const Index nbd = nbelow(d);
      const Index* rd = below(d);
      const Index pd = next_row[static_cast<std::size_t>(d)];
      Index pend = pd;
      while (pend < nbd && rd[pend] < c1) ++pend;
      const Index n1 = pend - pd;  // d's rows inside s's columns
      const Index n2 = nbd - pd;   // d's rows from there to the bottom
      const double* dd = f.d_.data() + d0;
      if (wd < kMr || n2 * n1 * wd < kSmallUpdate) {
        // Narrow or tiny: packing would not pay; scatter-axpys.
        for (Index k = 0; k < wd; ++k) {
          const double* yk = col[static_cast<std::size_t>(d0 + k)] + wd + pd;
          for (Index c = 0; c < n1; ++c) {
            const double l = yk[c] / dd[k];
            double* xc = scol[rd[pd + c] - c0];
            for (Index r = c; r < n2; ++r)
              xc[relmap[static_cast<std::size_t>(rd[pd + r])]] -= l * yk[r];
          }
        }
      } else {
        ws.row.resize(static_cast<std::size_t>(n2));
        for (Index r = 0; r < n2; ++r)
          ws.row[static_cast<std::size_t>(r)] = relmap[static_cast<std::size_t>(rd[pd + r])];
        ws.col.resize(static_cast<std::size_t>(n1));
        for (Index c = 0; c < n1; ++c)
          ws.col[static_cast<std::size_t>(c)] = scol[rd[pd + c] - c0] - lx;
        update_lower(n2, n1, wd, col.data() + d0, wd + pd, dd, lx,
                     ws.row.data(), 0, ws.col.data(), ws);
      }
      if (pend < nbd) enqueue(d, pend);
    }

    if (!factor_columns(scol, w + nb, 0, w, f.d_.data() + c0, lx, ws))
      return std::nullopt;
    if (nb > 0) enqueue(s, 0);
  }
  // L = (L·D) · D⁻¹ (the up-looking pass's division), compacted to the
  // column-wise solve storage: each column moves down past the diagonals
  // of the columns before it, so the copy runs in place.
  for (Index j = 0; j < n; ++j) {
    const double dj = f.d_[static_cast<std::size_t>(j)];
    const double* src = lx + f.lp_[static_cast<std::size_t>(j)] + j + 1;
    double* dst = lx + f.lp_[static_cast<std::size_t>(j)];
    for (Index t = 0; t < lnz[static_cast<std::size_t>(j)]; ++t) dst[t] = src[t] / dj;
  }
  f.lx_.resize(static_cast<std::size_t>(f.lp_.back()));
  if (supernodal) f.pack_panels(first);
  return f;
}

void SparseLdlt::pack_panels(const std::vector<Index>& first) {
  // --- Pack the wide supernodes: per block a dense strict-lower triangle
  // (column-major, packed) and a dense row-major panel over the shared
  // sub-diagonal rows (the pattern of the block's last column). Exact
  // supernodes mean every packed slot holds a genuine L entry — zero
  // padding, so l_nnz() and the flop accounting are format-independent. ---
  for (std::size_t s = 0; s + 1 < first.size(); ++s) {
    const Index c0 = first[s];
    const Index c1 = first[s + 1];
    if (c1 - c0 < kMinPanelWidth) continue;
    blk_first_.push_back(c0);
    blk_last_.push_back(c1);
  }
  if (blk_first_.empty()) return;

  const std::size_t nblk = blk_first_.size();
  blk_rowptr_.assign(nblk + 1, 0);
  blk_triptr_.assign(nblk + 1, 0);
  blk_panelptr_.assign(nblk + 1, 0);
  for (std::size_t s = 0; s < nblk; ++s) {
    const Index c0 = blk_first_[s];
    const Index c1 = blk_last_[s];
    const Index w = c1 - c0;
    const Index nrows =
        lp_[static_cast<std::size_t>(c1)] - lp_[static_cast<std::size_t>(c1 - 1)];
    blk_rowptr_[s + 1] = blk_rowptr_[s] + nrows;
    blk_triptr_[s + 1] = blk_triptr_[s] + w * (w - 1) / 2;
    blk_panelptr_[s + 1] = blk_panelptr_[s] + nrows * w;
  }
  blk_rows_.assign(static_cast<std::size_t>(blk_rowptr_.back()), 0);
  blk_tri_.assign(static_cast<std::size_t>(blk_triptr_.back()), 0.0);
  blk_panel_.assign(static_cast<std::size_t>(blk_panelptr_.back()), 0.0);

  for (std::size_t s = 0; s < nblk; ++s) {
    const Index c0 = blk_first_[s];
    const Index c1 = blk_last_[s];
    const Index w = c1 - c0;
    const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
    // Shared sub-diagonal rows = pattern of the block's last column.
    Index* rows = blk_rows_.data() + blk_rowptr_[s];
    const Index last_p0 = lp_[static_cast<std::size_t>(c1 - 1)];
    for (Index r = 0; r < nrows; ++r)
      rows[r] = li_[static_cast<std::size_t>(last_p0 + r)];
    double* tri = blk_tri_.data() + blk_triptr_[s];
    double* panel = blk_panel_.data() + blk_panelptr_[s];
    for (Index jj = 0; jj < w; ++jj) {
      const Index col = c0 + jj;
      const Index p0 = lp_[static_cast<std::size_t>(col)];
      // Column col holds (w - 1 - jj) within-supernode entries (rows
      // col+1..c1-1) followed by the nrows shared sub-diagonal entries.
      for (Index i = 0; i < w - 1 - jj; ++i) *tri++ = lx_[static_cast<std::size_t>(p0 + i)];
      for (Index r = 0; r < nrows; ++r)
        panel[r * w + jj] = lx_[static_cast<std::size_t>(p0 + (w - 1 - jj) + r)];
    }
  }
}

void SparseLdlt::solve_in_place_simplicial(std::span<double> b) const {
  // L y = b (unit lower triangular, stored by columns).
  for (Index j = 0; j < n_; ++j) {
    const double bj = b[static_cast<std::size_t>(j)];
    for (Index p = lp_[static_cast<std::size_t>(j)]; p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
      b[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
          lx_[static_cast<std::size_t>(p)] * bj;
  }
  // D z = y.
  for (Index j = 0; j < n_; ++j) b[static_cast<std::size_t>(j)] /= d_[static_cast<std::size_t>(j)];
  // Lᵀ x = z.
  for (Index j = n_ - 1; j >= 0; --j) {
    double s = b[static_cast<std::size_t>(j)];
    for (Index p = lp_[static_cast<std::size_t>(j)]; p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
      s -= lx_[static_cast<std::size_t>(p)] * b[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])];
    b[static_cast<std::size_t>(j)] = s;
  }
}

void SparseLdlt::solve_in_place_supernodal(std::span<double> b) const {
  // Per-block accumulator for the backward panel sweep; thread-local so
  // shared factors (cache entries) can be solved from concurrent threads.
  static thread_local std::vector<double> acc;
  const auto nblk = static_cast<Index>(blk_first_.size());

  // L y = b: packed blocks run a dense unit-lower triangle solve followed by
  // a row-major panel update (each panel row is one contiguous dot product);
  // the columns between blocks keep the scalar sweep.
  Index j = 0;
  Index bi = 0;
  while (j < n_) {
    if (bi < nblk && blk_first_[static_cast<std::size_t>(bi)] == j) {
      const auto s = static_cast<std::size_t>(bi);
      const Index c0 = j;
      const Index w = blk_last_[s] - c0;
      const double* tri = blk_tri_.data() + blk_triptr_[s];
      for (Index jj = 0; jj < w; ++jj) {
        const double bj = b[static_cast<std::size_t>(c0 + jj)];
        for (Index i = jj + 1; i < w; ++i)
          b[static_cast<std::size_t>(c0 + i)] -= (*tri++) * bj;
      }
      const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
      const Index* rows = blk_rows_.data() + blk_rowptr_[s];
      const double* panel = blk_panel_.data() + blk_panelptr_[s];
      for (Index r = 0; r < nrows; ++r) {
        double dot = 0.0;
        const double* prow = panel + r * w;
        for (Index jj = 0; jj < w; ++jj)
          dot += prow[jj] * b[static_cast<std::size_t>(c0 + jj)];
        b[static_cast<std::size_t>(rows[r])] -= dot;
      }
      j = blk_last_[s];
      ++bi;
    } else {
      const double bj = b[static_cast<std::size_t>(j)];
      for (Index p = lp_[static_cast<std::size_t>(j)]; p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
        b[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
            lx_[static_cast<std::size_t>(p)] * bj;
      ++j;
    }
  }
  // D z = y.
  for (Index i = 0; i < n_; ++i) b[static_cast<std::size_t>(i)] /= d_[static_cast<std::size_t>(i)];
  // Lᵀ x = z: walk backwards; packed blocks accumulate their panel
  // contributions per row (contiguous panel access again), then run the
  // transposed dense triangle solve.
  j = n_ - 1;
  bi = nblk - 1;
  while (j >= 0) {
    if (bi >= 0 && blk_last_[static_cast<std::size_t>(bi)] == j + 1) {
      const auto s = static_cast<std::size_t>(bi);
      const Index c0 = blk_first_[s];
      const Index w = blk_last_[s] - c0;
      const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
      const Index* rows = blk_rows_.data() + blk_rowptr_[s];
      const double* panel = blk_panel_.data() + blk_panelptr_[s];
      if (nrows > 0) {
        acc.assign(static_cast<std::size_t>(w), 0.0);
        for (Index r = 0; r < nrows; ++r) {
          const double xr = b[static_cast<std::size_t>(rows[r])];
          const double* prow = panel + r * w;
          for (Index jj = 0; jj < w; ++jj)
            acc[static_cast<std::size_t>(jj)] += prow[jj] * xr;
        }
        for (Index jj = 0; jj < w; ++jj)
          b[static_cast<std::size_t>(c0 + jj)] -= acc[static_cast<std::size_t>(jj)];
      }
      const double* tri = blk_tri_.data() + blk_triptr_[s];
      for (Index jj = w - 1; jj >= 0; --jj) {
        // Column jj's triangle entries (rows jj+1..w-1) are contiguous.
        const double* tcol = tri + (jj * (2 * w - jj - 1)) / 2;
        double sum = b[static_cast<std::size_t>(c0 + jj)];
        for (Index i = jj + 1; i < w; ++i)
          sum -= tcol[i - jj - 1] * b[static_cast<std::size_t>(c0 + i)];
        b[static_cast<std::size_t>(c0 + jj)] = sum;
      }
      j = c0 - 1;
      --bi;
    } else {
      double sum = b[static_cast<std::size_t>(j)];
      for (Index p = lp_[static_cast<std::size_t>(j)]; p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
        sum -= lx_[static_cast<std::size_t>(p)] * b[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])];
      b[static_cast<std::size_t>(j)] = sum;
      --j;
    }
  }
}

void SparseLdlt::solve_in_place(std::span<double> b) const {
  RPCG_CHECK(static_cast<Index>(b.size()) == n_, "solve size mismatch");
  if (supernodal())
    solve_in_place_supernodal(b);
  else
    solve_in_place_simplicial(b);
}

void SparseLdlt::solve(std::span<const double> b, std::span<double> x) const {
  RPCG_CHECK(b.size() == x.size(), "solve size mismatch");
  std::copy(b.begin(), b.end(), x.begin());
  solve_in_place(x);
}

std::optional<ReorderedLdlt> ReorderedLdlt::factor(const CsrMatrix& a) {
  // Candidate selection by symbolic fill. A later candidate must beat the
  // incumbent by a small margin (not just win a near-tie): equal-fill
  // factors solve equally many entries, but the earlier orderings have the
  // friendlier memory layout (natural needs no permute at all, RCM clusters
  // the factor along a band), so e.g. M1-style banded blocks where AMD and
  // RCM land within a handful of entries must keep RCM. Deterministic, and
  // never more fill than plain factor(a).
  Index best_nnz = SparseLdlt::symbolic_nnz(a);
  LdltOrdering best = LdltOrdering::kNatural;
  std::vector<Index> best_perm;
  std::optional<CsrMatrix> best_mat;

  const auto consider = [&](LdltOrdering ordering, std::vector<Index> perm) {
    bool identity = true;
    for (Index i = 0; i < a.rows(); ++i) {
      if (perm[static_cast<std::size_t>(i)] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return;
    CsrMatrix permuted = a.permuted_symmetric(perm);
    const Index nnz = SparseLdlt::symbolic_nnz(permuted);
    // 2% improvement threshold; switching orderings for less cannot pay
    // back the locality it gives up.
    if (nnz < best_nnz - best_nnz / 50) {
      best_nnz = nnz;
      best = ordering;
      best_perm = std::move(perm);
      best_mat = std::move(permuted);
    }
  };
  consider(LdltOrdering::kRcm, rcm_ordering(a));
  consider(LdltOrdering::kAmd, amd_ordering(a));

  auto f = SparseLdlt::factor(best_mat.has_value() ? *best_mat : a);
  if (!f.has_value()) return std::nullopt;
  return ReorderedLdlt(std::move(*f), std::move(best_perm), best);
}

std::optional<ReorderedLdlt> ReorderedLdlt::factor_with(const CsrMatrix& a,
                                                        LdltOrdering ordering,
                                                        bool supernodal) {
  std::vector<Index> perm;
  switch (ordering) {
    case LdltOrdering::kNatural: break;
    case LdltOrdering::kRcm: perm = rcm_ordering(a); break;
    case LdltOrdering::kAmd: perm = amd_ordering(a); break;
  }
  bool identity = true;
  for (Index i = 0; i < a.rows() && identity; ++i)
    identity = perm.empty() || perm[static_cast<std::size_t>(i)] == i;
  std::optional<SparseLdlt> f;
  if (identity) {
    perm.clear();
    f = SparseLdlt::factor(a, supernodal);
  } else {
    f = SparseLdlt::factor(a.permuted_symmetric(perm), supernodal);
  }
  if (!f.has_value()) return std::nullopt;
  // An identity RCM/AMD permutation is honestly the natural ordering.
  // (Resolved before the constructor call: its perm parameter is taken by
  // value, so reading perm.empty() as a sibling argument would race the
  // move in unspecified evaluation order.)
  const LdltOrdering reported =
      identity ? LdltOrdering::kNatural : ordering;
  return ReorderedLdlt(std::move(*f), std::move(perm), reported);
}

void ReorderedLdlt::solve(std::span<const double> b, std::span<double> x) const {
  RPCG_CHECK(b.size() == x.size(), "solve size mismatch");
  if (perm_.empty()) {
    ldlt_.solve(b, x);
    return;
  }
  // B = P A Pᵀ with B-row i = A-row perm[i]: solve B (P x) = P b. The
  // workspace is thread-local (not a member) so shared instances — e.g.
  // FactorizationCache entries — can be solved from concurrent threads.
  static thread_local std::vector<double> scratch;
  scratch.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    scratch[i] = b[static_cast<std::size_t>(perm_[i])];
  ldlt_.solve_in_place(scratch);
  for (std::size_t i = 0; i < b.size(); ++i)
    x[static_cast<std::size_t>(perm_[i])] = scratch[i];
}

}  // namespace rpcg
