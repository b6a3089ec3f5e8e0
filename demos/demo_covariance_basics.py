#!/usr/bin/env python3
"""Walk through the covariance-matrix toolkit on a three-mode state.

Builds the squeezed fiducial state, rotates it by a random passive
unitary, and shows the quantities every later demo leans on: the
symplectic spectrum, mode energies, purity, and the reduced-state
entropy in nats.  Every matrix comes from the rows of the unitary, as in
a trial: all n rows give the whole state, the first k rows the state of
the first k modes.
"""

import numpy as np

from cvtypical.haar import SeededStream, sample_haar_unitary
from cvtypical.symplectic import (
    average_energy,
    gaussian_entropies,
    reduced_covariance_from_rows,
    spectral_deviation_deltas,
    symplectic_spectrum,
)

Z = np.array([4.0, 2.0, 1.0])
SEED = 7


def main():
    print("squeezing parameters z =", Z)
    print("mode energies z + 1/z  =", Z + 1.0 / Z)
    print("average energy         =", average_energy(Z))

    M, _residual = reduced_covariance_from_rows(np.eye(3), Z)
    print("\nfiducial covariance (qqpp blocks):")
    print(M)

    gen = SeededStream(SEED).generator()
    U = sample_haar_unitary(3, gen)
    rotated, residual = reduced_covariance_from_rows(U, Z)
    print("\nrow orthonormality residual |U U+ - I|:", residual)
    spectrum = symplectic_spectrum(rotated)
    print("symplectic spectrum of rotated state:", spectrum.lambdas)
    print("pairing residual:", spectrum.pairing_residual)
    print("still pure (all eigenvalues 1):",
          bool(np.all(np.abs(spectrum.lambdas - 1.0) < 1e-10)))

    reduced, _residual = reduced_covariance_from_rows(U[:1], Z)
    lambdas = symplectic_spectrum(reduced).lambdas[None]
    (entropy,) = gaussian_entropies(lambdas)
    (delta,) = spectral_deviation_deltas(lambdas, [average_energy(Z)])
    print("\nkeep mode 1: symplectic eigenvalue =", lambdas[0, 0])
    print("entanglement entropy (nats)        =", entropy)
    print("deviation functional f = 2 delta^2 =", 2.0 * delta**2)


if __name__ == "__main__":
    main()
